// Package pagerank turns the walk machinery into the paper's actual system:
// an incremental PageRank maintainer that owns a walk store of R reset-walk
// segments per node, serves estimates out of the store's visit counters
// (Section 2.1's ~pi_v = eps X_v / (nR) estimator), and consumes an edge
// stream while keeping the stored walks distributed exactly as if they had
// been freshly sampled on the current graph (Section 2.2's maintenance
// loop; the expected-update-cost analysis is the paper's Theorems 2-5 under
// the random-permutation and Dirichlet arrival models).
//
// The headline cost saving is the W(v)-probability fast path. An arriving
// edge (u, v) raises u's out-degree to d, and a stored walk step leaving u
// must be redirected through the new edge with probability 1/d. With K
// stored outgoing steps at u, *some* redirection is needed only with
// probability 1-(1-1/d)^K — so the maintainer flips one coin against cheap
// store counters and, on tails, skips the arrival without fetching a single
// segment. The paper states the bound with W(u), the number of distinct
// segments through u; this implementation uses the exact candidate count
// K = X_u - T(u) (walkstore.Candidates). On heads, the reroute positions
// are sampled *conditioned on at least one reroute* (truncated-geometric
// first success, independent flips after), so estimates with the fast path
// enabled are drawn from exactly the same distribution as with it disabled,
// and every non-skipped arrival performs real work — the argument is
// docs/DESIGN.md#3-the-lossless-wv-fast-path.
//
// On heads, the repair scan enumerates its candidates from the walk
// store's pending-position index — the exact (segment, position) pairs of
// stored visits at the source, in the same ascending order the pre-index
// full-path scan produced — so a slow path costs O(hits) rather than
// O(visitors × path length); Config.LegacyScan keeps the old enumeration
// alive for the bitwise-equivalence test and benchmarks
// (docs/DESIGN.md#7-the-pending-position-index).
//
// Updates run serialized by default (bitwise reproducible per seed) or
// concurrently with Config.UpdateWorkers > 1: arrivals are serialized per
// source stripe (out-degree only moves on arrivals from that source, so the
// degree in the write's reply still holds when the repair runs), the
// affected segments are frozen under
// SegmentID stripe locks before each repair scan (the index re-read under
// the freeze keeps every hit position exact), and the scan retries against
// the frozen enumeration if cross-stripe interference moved the candidate
// count — so SlowNoops == 0 survives parallelism, at the documented price
// of per-seed reproducibility relaxing to distributional equivalence. Lock
// order, stripe-consistency argument, and that relaxation are
// docs/DESIGN.md#6-concurrency-model.
//
// The maintainer also consumes deletions (ApplyDeletion/ApplyEvents): the
// reverse reroute rule captures each stored step through the removed copy
// with probability 1/c (deterministically when it was the only copy),
// keeps the captured step's prefix, re-steps through a uniform surviving
// out-edge with no reset coin, and regrows the tail on the post-removal
// graph — or truncates when the last out-edge vanished, the revival law
// run in reverse. Deletions carry no skip coin, enumerate their candidates
// O(hits) from the pending-position index (LegacyScan keeps the full-path
// flavor bitwise coin-identical), and leave the arrival-path invariants
// (SlowNoops == 0) untouched — see docs/DESIGN.md#10-deletions--windows.
//
// All graph access on the update path — the edge write and every step of
// regenerated walk tails — is routed through socialstore.Store, so the call
// accounting the paper's cost analysis is stated in falls out of Metrics();
// per-arrival work beyond that is visible in Counters(). The degrees and
// multiplicity a repair needs ride the write's reply rather than costing
// reads of their own (docs/DESIGN.md#1-data-flow). A parallel deletion batch
// samples through a walk.Recorder per worker, and the straggler sweep after
// it revisits only the deleted edges those recorders saw stepped on
// (Counters.Suspects, Counters.Swept).
//
// Index writes are phase-batched (docs/DESIGN.md#11-batching--compaction):
// reroute and revival tails are sampled inline — preserving the bitwise
// coin sequence — and their mutations flushed through one
// walkstore.ReplaceTailBatch per repair phase, with the parallel path
// pre-grouping arrivals by source stripe. Config.UnbatchedWrites keeps the
// per-call path as the equivalence oracle; Config.CompactEvery checks the
// arena between batches and compacts when at least a quarter of it is
// garbage (walkstore.Store.MaybeCompact). Both knobs are proven bitwise
// invisible by the fixed-seed batch tests.
package pagerank
