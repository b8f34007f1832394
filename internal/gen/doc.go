// Package gen generates the synthetic workloads that stand in for the
// paper's Twitter data: power-law directed graphs, edge-arrival streams
// under the random-permutation and Dirichlet models (the arrival models of
// the paper's Theorems 2-5 and Section 6's simulations), and the
// adversarial gadget of the paper's Example 1 (the Omega(n) worst case for
// a single edge arrival).
//
// The paper's analysis needs only the random-permutation arrival model (m
// adversarially chosen edges arriving in random order) and, for the
// personalized results, power-law score vectors. Preferential-attachment
// graphs replayed in random order satisfy both, so every code path
// the Twitter experiments exercised is exercised here;
// docs/DESIGN.md#5-workload-substitution-no-twitter-data records the
// substitution.
//
// Churn streams extend the arrival models with deletions
// (docs/DESIGN.md#10-deletions--windows): ShrinkGrowStream folds an
// arrival stream into alternating grow/shrink phases, and
// PowerLawChurnStream interleaves preferential-attachment arrivals with
// uniform deletions. Both only ever delete edges live at that point in the
// stream — a serialized replay must record zero deletion misses — and
// SplitEvents recovers the plain arrival slice when a consumer wants the
// growth-only prefix semantics.
//
// The adversarial arrival suite
// (docs/DESIGN.md#11-batching--compaction) stresses the maintainers with
// the stream shapes uniform arrivals never produce: PoissonBurstStream
// (temporally clumped arrivals sharing a source), BipartiteStream
// (hub-to-authority arrivals under a Zipf popularity law) and
// PowerLawStream (Zipf-skewed endpoints on both sides). All three are
// fixed-seed, panic on degenerate parameters, and are shape-checked by
// chi-squared tests; cmd/benchwalk exposes them as -workload profiles and
// replays them in its -adversarial section.
package gen
