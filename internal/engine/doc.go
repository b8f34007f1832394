// Package engine drives the Monte Carlo walk machinery in parallel: it
// generates the paper's R reset-walk segments per node with a worker pool
// (full-store construction, the preprocessing step of Section 2.2) and
// replays edge arrivals through the paper's incremental update rule
// (Section 2.2's maintenance loop, the 1/d reroute coin of its Theorem 1
// analysis), both against the sharded graph and the arena-backed walk
// store.
//
// Design notes. Each worker owns a PCG random source (math/rand/v2), a
// graph.Batcher, and a set of reusable path buffers, so the steady state
// allocates nothing per segment. Segment generation runs as a lockstep
// burst: up to Batch walkers advance together, one shard-grouped sampling
// call per round, and finished bursts are flushed into the store through
// AddBatch under a single lock acquisition. Edge updates freeze, stage and
// flush through internal/repair's kernel over the engine's own SegmentID
// stripes, so two workers never reroute the same segment concurrently while
// leaving unrelated segments fully parallel — the same per-segment
// serialization contract the maintainers' parallel update paths rely on.
// The coin loops are the engine's own: no skip coin, a flip per candidate
// until a capture, and a deletion re-step drawn through the worker's
// Recorder because the engine holds no source stripe. See
// docs/DESIGN.md#6-concurrency-model
// for the system-wide lock order and docs/DESIGN.md#1-data-flow for where
// the engine sits in it.
//
// The engine also replays the inverse stream: ApplyDeletions runs the
// reverse reroute rule (each stored step through a removed copy of (u, v)
// captured with probability 1/c over the pre-removal multiplicity c, then
// re-stepped through a surviving out-edge or truncated when none survive),
// and ApplyWindow streams arrivals through a fixed-capacity sliding window,
// feeding each expiring edge back through the deletion path so the graph
// always holds exactly the last capacity arrivals — see
// docs/DESIGN.md#10-deletions--windows. The engine holds no per-source
// lock, so every degree and multiplicity it uses is its own write's reply
// (exact however workers race: a source's first two racing inserts revive
// exactly once), and during a parallel deletion batch every sample, a
// resample's first step included, goes through a walk.Recorder so the
// straggler sweep revisits only the deleted edges some worker stepped on.
//
// The engine is the throughput-oriented, approximately-serialized replay
// used by benchmarks; pagerank.Maintainer layers the exactly-serialized,
// call-accounted update path with the W(v) fast path on top of the same
// store. Config.CompactEvery has ApplyWindow check the walk arena between
// arrivals every N streamed edges (and once more at stream end),
// compacting when at least a quarter of it is garbage — bitwise invisible
// to the window run, per docs/DESIGN.md#11-batching--compaction.
package engine
