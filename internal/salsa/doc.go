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
// tail through the call-accounted Social Store. Both phases are runs of
// internal/repair's kernel with the lossless fast path
// (docs/DESIGN.md#3-the-lossless-wv-fast-path), sequenced by its Shell
// under the (source, target) endpoint stripe pair — the same code and event
// loop that maintain PageRank walks. The kernel's worker carries the forward
// phase's regrown segments into the backward one, which leaves them out:
// they were sampled on the graph that already contains the new edge. This
// package supplies that law and keeps the bootstrap, the estimates and the
// queries. The tests hold every phase bitwise to a reference that scans full
// paths and applies each mutation at once (ref_test.go).
//
// Deletions run the sided reverse reroute rule
// (docs/DESIGN.md#10-deletions--windows): removing a copy of (u, v)
// captures each stored forward step u -> v at u and each stored backward
// step v -> u at v with probability 1/c over the pre-removal multiplicity,
// re-steps captures through a surviving out-edge of u (forward) or in-edge
// of v (backward), and truncates when none survive — the asymmetric
// revival law in reverse. The arrival observer fires after a deletion's
// effects exactly as after an arrival's.
//
// # Personalized queries
//
// Personalized(source) runs QueryWalks alternating walks from the source,
// splicing stored segments: a walk at node w pending direction dir consumes
// one of w's unused stored dir-side segments and — by memorylessness of the
// reset law — finishes right there, for zero round trips; only when w's
// segments are exhausted does it take bare single steps through
// socialstore. Each stored segment is used at most once per query, keeping
// the walks independent. A query tallies its visits and its stitching
// cursors in scratch taken from a sync.Pool — dense per-node-ID slices with
// a map fallback for wild IDs, reset through first-visit touched lists —
// and keeps only compact (node, count) pairs, so it builds no map
// (docs/DESIGN.md#4-the-theorem-8-accounting-model). Queries are
// read-mostly and run concurrently with updates and each other: spliced
// paths are the store's stable arena slices, per-node segment lists are
// per-query snapshots appended into that scratch, the store's
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
package salsa
