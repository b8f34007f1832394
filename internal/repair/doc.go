// Package repair is the one implementation of the paper's repair rule: a
// stored step at u switches to a new out-edge with probability 1/d
// (docs/DESIGN.md#3-the-lossless-wv-fast-path), and a step through a deleted
// edge copy is re-sampled by the reverse rule
// (docs/DESIGN.md#10-deletions--windows).
//
// The Kernel runs one repair phase. A phase probes the walk store's
// pending-position index, so it costs O(hits) rather than O(visitors × path
// length) (docs/DESIGN.md#7-the-pending-position-index); freezes the hits
// under the SegmentID stripes (level 2 of docs/DESIGN.md#lock-order); flips
// its coins in (segment, position) order with tails sampled inline; and
// flushes once through walkstore.ReplaceTailBatch
// (docs/DESIGN.md#11-batching--compaction). A Kernel does not know its
// caller: the index side, tail law and pool streams are data. The engine
// reuses Worker, Freeze, Stage and Release around its own coin loops.
//
// The Shell is the event sequencing both incremental maintainers share,
// built from a Law value: pagerank's runs one unsided phase per event,
// salsa's a forward phase at the source and then a backward one at the
// target. It writes each arrival or deletion through the social store under
// the event's endpoint stripes (level 1), so the degrees and multiplicity a
// phase needs ride the write's reply (docs/DESIGN.md#1-data-flow), seeds
// nodes first seen, and owns the serialized update RNG, whose state goes
// into WAL commit markers. Updates run serialized by default, bitwise
// reproducible per seed, or concurrently with Workers > 1: each phase then
// re-reads the index under its freeze and retries against the frozen
// enumeration when a cross-stripe repair moved its candidate count, so
// SlowNoops == 0 survives, at the price of per-seed reproducibility relaxing
// to distributional equivalence (docs/DESIGN.md#6-concurrency-model).
package repair
