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
// are drawn from exactly the same distribution as under naive per-step
// coins, and every non-skipped arrival performs real work — the argument is
// docs/DESIGN.md#3-the-lossless-wv-fast-path.
//
// The repair itself is internal/repair's kernel, sequenced by its Shell
// (edge write, endpoint stripes, seeding, update RNG, parallel pool). This
// package supplies the law the shell runs, one unsided phase per event at
// the edge's source, and keeps the estimates. The tests hold every phase
// bitwise to a reference that scans full paths and applies each mutation at
// once (ref_test.go).
//
// Deletions run the reverse reroute rule: removing one copy of (u, v)
// captures each stored step through it with probability 1/c over the
// pre-removal multiplicity (deterministically when it was the only copy),
// keeps the captured step's prefix, re-steps through a uniform surviving
// out-edge with no reset coin, and regrows the tail on the post-removal
// graph — or truncates when the last out-edge vanished, the revival law
// run in reverse. Deletions carry no skip coin and leave the arrival-path
// invariants (SlowNoops == 0) untouched — see
// docs/DESIGN.md#10-deletions--windows.
//
// All graph access on the update path — the edge write and every step of
// regenerated walk tails — is routed through socialstore.Store, so the call
// accounting the paper's cost analysis is stated in falls out of Metrics();
// per-arrival work beyond that is visible in Counters().
package pagerank
