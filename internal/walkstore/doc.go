// Package walkstore implements the paper's "PageRank Store" (Section 2.2):
// the database of random walk segments kept alongside the social graph, and
// the counters and indexes that make the incremental update rule, the
// estimate reads, and the repair scans cheap.
//
// For every node the store maintains one consolidated state record holding
// the counters the paper names explicitly:
//
//	X_v  — total number of visits to v across all stored segments, the
//	       numerator of the PageRank estimate  ~pi_v = eps * X_v / (nR)
//	       (the paper's Section 2.1 estimator). On graphs with dangling
//	       nodes, walks truncate early and the better-normalized estimator
//	       is X_v / TotalVisits (same shape, correct scale);
//	W(v) — number of distinct stored segments visiting v, used by the
//	       "call the PageRank Store with probability 1-(1-1/d)^W" fast path
//	       of the paper's Section 2.2 cost analysis;
//	T(v) — number of stored segments whose path *ends* at v (Terminals).
//	       Candidates(v) = X_v - T(v) counts the outgoing steps stored
//	       segments take from v, which is the exact exponent for the skip
//	       coin: an arriving edge (v, w) needs no rerouting with probability
//	       (1-1/d)^Candidates(v), so the incremental maintainer can skip the
//	       whole arrival on one counter read without fetching any path.
//
// Pending-position index. The counters say how many stored steps an arrival
// perturbs; the pending-position index says exactly which ones. Per (node,
// pending step direction) — plus one bucket for unsided segments — the
// store keeps the sorted (SegmentID, position) pairs of its stored visits
// (AppendPendingPositions), so a repair phase enumerates its candidates in
// O(hits) instead of walking every visitor's full path, in exactly the
// candidate order the pre-index scans used (ascending segment, then
// position — the order first-switch indices are drawn over). The buckets
// hold one entry per visit and double as the inverted visitor index
// (Visitors and W derive from them). A bucket is one pointer-free slice: a
// strictly ascending prefix of packed seg<<32|pos<<1 words followed by a
// write log. A write appends one word wherever its key sorts (a remove sets
// bit 0), so the repair path's index upkeep is O(1) per regenerated step;
// the log is folded into the prefix — sorted, add/remove pairs cancelled,
// one pass closing the prefix up, one opening it — by the first reader, or
// by the writer that makes it 64 words long and an eighth of the prefix. A
// read of a bucket with unfolded writes therefore takes the node's stripe
// write lock instead of the read lock; the fold changes no logical state
// and bumps no epoch, and the enumeration it yields is the one an eagerly
// sorted bucket would have held. See
// docs/DESIGN.md#7-the-pending-position-index for the invariants and the
// measurements behind the two thresholds.
//
// Sided segments. SALSA (Sections 2.3 and 5) stores alternating walks; a
// segment can be tagged with the direction of its first step (AddSided).
// Because alternation is strict, the pending step direction of a visit is
// side XOR position parity, and the store maintains per-direction visit,
// terminal, and total counters: PendingVisits(v, Backward) is exactly the
// authority-side visit count of v, PendingCandidates the sided skip-coin
// exponent, PendingTerminals the revival candidates — the sided analogues
// of X_v, Candidates, and T(v) — with the sided index buckets enumerating
// each.
//
// Storage layout. Segment paths live in an append-only arena of chunks
// ([]graph.NodeID, at most 2^16 nodes each; a path never straddles two and
// a longer path gets a chunk of its own), and each segment's place in it
// is one packed uint64 ref — chunk index, offset, length, side, live bit —
// in fixed blocks of atomic words. Chunks and table make up one arena
// generation; Compact starts the next. No occupied slot is written again,
// no chunk moves and no chunk index is reused within a generation, so a
// path slice handed out by Path stays valid and immutable for the life of
// the store even across ReplaceTail (which writes the revised path to
// fresh arena space and repoints the segment) — see
// docs/DESIGN.md#2-the-arena--copy-on-truncate-invariant. Per-node state is
// addressed by dense slots (stripe = id&63, slot = id>>6, with a sparse-map
// fallback for IDs outside the dense range), so the hot counter touches are
// slice indexes, not hash lookups.
//
// Concurrency. All per-node state is sharded into numStripes lock stripes
// selected by the node ID's low bits, so everything one node's skip coin
// reads is consistent under a single stripe lock while unrelated nodes
// mutate in parallel; the arena and segment table have a separate segment
// lock that serializes their writers and the quiescent passes — segment
// reads (Path, AppendPaths, SideOf) take no lock: they load the arena
// generation, then the ref and the chunk directory from it, each published
// through an atomic pointer. Each stripe keeps its own share of
// every total, which Validate cross-checks against the atomic global
// mirrors and a recount from the stored paths. Batch adds (AddBatch) and tail mutations
// (ReplaceTail/Remove) group their per-node updates by stripe, paying one
// lock acquisition per touched stripe and one atomic-total update per
// mutation. Reads are freely concurrent; mutations of distinct segments are
// concurrent-safe, mutations of the same segment must be serialized by the
// caller (the engine and both maintainers hold SegmentID stripe locks for
// exactly this). Epoch counts completed mutations — the version stamp the
// read-mostly query path brackets itself with — and every stripe carries
// its own StripeEpoch, bumped on each mutating acquisition of that
// stripe's lock, so the serving tier can key cached query results on
// exactly the stripes a query read (docs/DESIGN.md#9-the-serving-tier)
// instead of invalidating on every mutation anywhere; Validate
// cross-checks the per-stripe epochs against the global count of mutating
// stripe acquisitions.
//
// Validate requires a quiescent store and enforces that itself: it takes
// the segment lock plus every counter stripe (for writing: checking a bucket
// folds its write log) and then checks the in-flight mutation count, failing with a wrapped ErrConcurrentMutation (test with
// errors.Is) when it caught a mutation between its arena phase and its
// counter updates — the one state a lock-holding validator cannot
// distinguish from corruption. Callers that cannot guarantee quiescence can
// additionally bracket the call with Epoch() reads. The full lock order and
// the snapshot-semantics argument live in
// docs/DESIGN.md#6-concurrency-model.
//
// The store is deliberately agnostic about what a segment means: it stores
// node paths. The PageRank maintainer stores reset walks; the SALSA
// maintainer stores alternating walks.
//
// Under churn (docs/DESIGN.md#10-deletions--windows) the same machinery
// runs in reverse: deletion repairs enumerate the stored steps through the
// removed edge from the pending-position buckets in O(hits), and
// ValidateSteps checks the edge-consistency invariant a shrink leaves
// behind — no stored step may traverse an edge missing from the graph,
// with backward (sided) steps checked against the transposed adjacency.
//
// Batching and compaction (docs/DESIGN.md#11-batching--compaction).
// ReplaceTailBatch applies a whole repair phase's tail mutations under one
// segment-lock acquisition — relocations in batch order (so replay order
// equals execution order and a batch may touch the same segment twice),
// then one stripe-sorted index pass — producing identical index
// enumerations, epochs, and WAL records to the per-call path; GroupByStripe is
// the stable counting sort the maintainers' parallel paths use to aim
// whole arrival slices at one stripe neighborhood; a batch is checked whole
// before its first relocation, so a bad entry panics with the store
// untouched. Compact copies the live segments into a fresh arena
// generation and swaps it in with one pointer store, reclaiming ReplaceTail
// garbage (measured by ArenaStats) while bumping no epoch, no stripe stamp,
// and no mutation-log entry — readers that loaded the old generation finish
// in it and previously handed-out Path slices keep reading its chunks, so
// the stability contract above is untouched and cached query results stay
// valid across a compaction. Chunk indices restart at zero in every
// generation, so the ref's 27-bit chunk field bounds one generation's
// arena (at least 256 GiB), not the store's lifetime.
// MaybeCompact wraps Compact behind a garbage-ratio gate — it only pays
// for the arena copy when at least a quarter of the slots are garbage —
// and is what the maintainers' periodic triggers call.
package walkstore
