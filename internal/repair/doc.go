// Package repair is the one implementation of the paper's repair rule: a
// stored step at u switches to a new out-edge with probability 1/d
// (docs/DESIGN.md#3-the-lossless-wv-fast-path), and a step through a deleted
// edge copy is re-sampled by the reverse rule
// (docs/DESIGN.md#10-deletions--windows). pagerank runs one unsided phase
// per event; salsa a forward phase at the source, then a backward one at the
// target. A phase probes the index, freezes the hits under the SegmentID
// stripes (level 2 of docs/DESIGN.md#6-concurrency-model), flips its coins
// in (segment, position) order with tails sampled inline, and flushes once
// (docs/DESIGN.md#11-batching--compaction). A Kernel does not know its
// caller: the index side, tail law and pool streams are data. The engine
// reuses Worker, Freeze, Stage and Release around its own coin loops.
package repair
