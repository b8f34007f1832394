// Package salsa implements the paper's personalized second half (Sections
// 2.3, 4, and 5): an incremental SALSA maintainer over the same walk-segment
// store and Social Store as the PageRank maintainer, plus the personalized
// query layer whose round-trip cost Theorem 8 bounds.
//
// # Stored state
//
// Every node owns 2R alternating eps-reset walk segments (walk.Salsa): R
// starting with a forward step (the node acting as a hub) and R starting
// backward (the node acting as an authority). Segments live in a
// walkstore.Store with a per-segment side tag; because alternation is strict,
// a visit's pending step direction is its side XOR its position parity, and
// the store indexes visits by that pending direction. Visits pending a
// backward step ARE the authority-side visits, visits pending a forward step
// the hub-side ones, so the global SALSA score estimates — AuthorityAll,
// HubAll — are two counter-table reads, exactly like the PageRank
// maintainer's X_v/TotalVisits estimator.
//
// # Incremental maintenance
//
// An arriving edge (u, v) perturbs stored walks in two independent ways,
// each the paper's Section 2.2 reroute rule transplanted to one side of the
// bipartite alternation:
//
//   - forward phase: u's out-degree rose to d, so every stored forward step
//     from u switches to the new edge with probability 1/d (first out-edge:
//     forward-pending terminals at u revive with probability 1-eps);
//   - backward phase: v's in-degree rose to d', so every stored backward
//     step from v switches to u with probability 1/d' (first in-edge:
//     backward-pending terminals at v revive with probability 1 — there is
//     no reset coin before a backward step).
//
// A switched or revived segment keeps its prefix and regrows an alternating
// tail through the call-accounted Social Store (walk.AppendContinueSalsa).
// Both phases use the lossless fast path
// (docs/DESIGN.md#3-the-lossless-wv-fast-path): one coin against (1-1/d)^k
// with the exact sided candidate count k decides whether anything changes,
// and on heads the first switch position is drawn truncated-geometrically,
// so SlowNoops == 0 is an invariant. The backward phase excludes positions
// the forward phase just regenerated — those steps were sampled on the graph
// that already contains the new edge.
//
// Each phase enumerates its candidates from the walk store's
// pending-position index (one (segment, position) hit per stored step of
// the phase's direction at the endpoint, in the canonical ascending order
// first-switch indices are drawn over), so a slow path costs O(hits)
// instead of walking every visitor's full path; Config.LegacyScan keeps the
// pre-index full-path enumeration alive for the bitwise-equivalence test
// and the benchmark comparison — see
// docs/DESIGN.md#7-the-pending-position-index.
//
// Updates run serialized by default or concurrently with
// Config.UpdateWorkers > 1: an arrival locks its (source, target) endpoint
// stripe pair in index order — out-degree moves only on arrivals from the
// source and in-degree only on arrivals to the target, so both degrees in
// the write's reply still hold when the phases run — and each repair phase
// freezes its segments under SegmentID
// stripe locks (re-reading the index under the freeze so every hit is
// exact), retrying against the frozen enumeration when cross-stripe
// interference moved a counter. Per-seed reproducibility relaxes to
// distributional equivalence, argued in
// docs/DESIGN.md#6-concurrency-model.
//
// Deletions run the sided reverse reroute rule
// (docs/DESIGN.md#10-deletions--windows): removing a copy of (u, v)
// captures each stored forward step u -> v at u and each stored backward
// step v -> u at v with probability 1/c over the pre-removal multiplicity,
// re-steps captures through a surviving out-edge of u (forward) or in-edge
// of v (backward), and truncates when none survive — the asymmetric
// revival law in reverse. The backward phase runs second and excludes the
// positions the forward phase just regenerated; both hold the same
// endpoint stripe pair as arrivals, so the multiplicity and degrees in the
// removal's reply stay exact under parallel churn, and the arrival observer
// fires after a deletion's effects exactly as after an arrival's. An update
// reads no degree from the Social Store: arrivals and deletions alike take
// both endpoints' degrees (and a deletion the copies left) from their one
// write's reply (docs/DESIGN.md#1-data-flow). After a parallel deletion
// batch the straggler sweep revisits only the deleted edges the workers'
// walk.Recorders saw a forward or backward step cross.
//
// # Personalized queries
//
// Personalized(source) runs QueryWalks alternating walks from the source,
// splicing stored segments: a walk at node w pending direction dir consumes
// one of w's unused stored dir-side segments and — by memorylessness of the
// reset law — finishes right there, for zero round trips; only when w's
// segments are exhausted does it take bare single steps through
// socialstore. Each stored segment is used at most once per query, keeping
// the walks independent. Queries are read-mostly and run concurrently with
// updates and each other: spliced paths are the store's stable arena
// slices, per-node segment lists are per-query snapshots, the store's
// mutation epoch is stamped into QueryStats, and the measured store calls
// come from a per-query socialstore.Session — so StoreCalls == BareSteps
// and the Theorem8Bound ceiling
// (docs/DESIGN.md#4-the-theorem-8-accounting-model) are asserted even under
// a live parallel storm.
//
// Each query draws its RNG from a PCG stream derived by QueryStream from
// the process-local query counter and the store's mutation epoch — so
// streams never repeat across a crash/Recover boundary (the counter alone
// would replay pre-crash sequences) — and PersonalizedStream replays any
// recorded stream bitwise against an unchanged store. QueryStats also
// records the query's read footprint over the store's counter stripes
// (StripeMask), the invalidation key the internal/serve result cache is
// built on (docs/DESIGN.md#9-the-serving-tier); SetArrivalObserver is the
// hook that tier uses to see arrivals whose repair never touched the walk
// store.
//
// Index writes are phase-batched (docs/DESIGN.md#11-batching--compaction):
// each repair phase samples its tails inline — the coin sequence is
// bitwise the sequential one — but coalesces the resulting mutations into
// one walkstore.ReplaceTailBatch per phase, and the parallel path
// pre-groups each arrival batch by source stripe. Config.UnbatchedWrites
// keeps the per-call path as the equivalence oracle, and
// Config.CompactEvery checks the arena between batches and compacts when
// at least a quarter of it is garbage (walkstore.Store.MaybeCompact);
// both are proven bitwise invisible by the fixed-seed batch tests.
package salsa
