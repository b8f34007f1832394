// Package graph provides a dynamic directed multigraph with O(1) random
// neighbor sampling — the substrate every random-walk component in this
// reproduction of Bahmani, Chowdhury & Goel, "Fast Incremental and
// Personalized PageRank" (PVLDB 2010) stands on. It plays the role of the
// social graph G = (V, E) of the paper's Section 2, with the random
// out-neighbor (and, for SALSA, in-neighbor) access the Monte Carlo walkers
// of Sections 2.1-2.3 perform billions of times.
//
// The graph supports concurrent readers and writers. Node IDs are opaque
// 64-bit integers, matching the ID space of a large social network.
// Adjacency is stored as append-only slices with swap-delete removal, so a
// uniformly random neighbor is a single slice index.
//
// To keep that hot path scalable the adjacency rows are partitioned by the
// node ID's low bits into a power-of-two number of lock-striped shards, and
// within a shard rows for dense IDs (the normal case — every generator and
// the production allocator assign 0..n-1) live in a flat slot array, so a
// degree read or neighbor pick is a slice index rather than a map lookup;
// walkers whose current nodes land on different shards never contend, and a
// Batcher amortizes even the uncontended lock acquisition over a whole
// burst of lockstep walkers. Operations that need a consistent global view (Edges,
// Clone, Validate) lock every shard in index order. The shard
// locks are the leaf level of the system-wide lock order
// (docs/DESIGN.md#6-concurrency-model); the graph's place in the data flow
// is docs/DESIGN.md#1-data-flow.
//
// The graph shrinks as well as grows: RemoveEdge deletes one copy of a
// multigraph edge, the primitive under the reverse reroute rule of
// docs/DESIGN.md#10-deletions--windows. Its contract is row order: the
// first copy is swap-deleted from both rows (u's out-row and v's in-row),
// so typed replay of an event stream reproduces adjacency row order, and
// with it every random-neighbor draw, bitwise. A single copy (at least
// 99 % of the deletions in every churn stream the benchmark replays) is
// found in v's in-row newest-first, where AddEdge appends and swap-delete
// keeps young edges; a copy with siblings is found by the forward scan. A
// removal costs O(out-degree of u + distance of the copy from the newest
// end of v's in-row), so expiring a young edge into a hub no longer reads
// the hub's whole in-row.
//
// Writes reply with what the repair rule reads next, under the shard locks
// they already hold: AddEdge returns u's out-degree and v's in-degree after
// the insert, RemoveEdge those two plus the copies of u -> v left (its
// out-row scan passes every later copy anyway). The replies are exact
// against concurrent writers — k racing inserts from one source get back
// exactly 1..k — so no caller needs a second read, locked or not
// (docs/DESIGN.md#6-concurrency-model).
//
// Event tags an edge as an arrival or a deletion for mixed churn streams,
// and Window is the fixed-capacity FIFO ring the engine's sliding-window
// driver expires old arrivals through.
package graph
