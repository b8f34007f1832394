// Package walk implements the random-walk primitives shared by the global
// and personalized components of the paper: geometric-length "reset" walks
// (Section 2.1, the Monte Carlo PageRank estimator) and the alternating
// forward/backward walks used by SALSA (Section 2.3 / Section 5's
// personalized SALSA).
//
// A PageRank walk segment simulates one continuous surfer session: starting
// at a source node it repeatedly follows a uniformly random out-edge, and
// before every step it resets (terminates the segment) with probability eps.
// Segment lengths are therefore geometric with mean 1/eps steps. Dangling
// nodes (out-degree zero) force a reset, the standard Monte Carlo
// convention, which matches the paper's walk semantics where every visit
// ends a session if no edge can be followed.
//
// A SALSA walk alternates: a forward step (hub -> authority, along an
// out-edge) then a backward step (authority -> hub, against an in-edge), and
// so on, resetting with probability eps only before forward steps, so the
// expected length is 2(1-eps)/eps steps. The parity law DirectionFrom(first,
// i) — the step from position i has direction first XOR (i&1) — is what
// lets the walk store index alternating visits by pending direction without
// storing a direction bit per visit.
//
// Continue/ContinueSalsa exploit the memorylessness of the reset coin: the
// remainder of a walk paused at node v is distributed exactly as a fresh
// continuation from v. The incremental maintainers (Section 2.2's update
// rule) regrow rerouted tails with it, and the personalized query layer
// (Section 4-5) splices stored segments onto live walks with it — the
// zero-round-trip stitch of
// docs/DESIGN.md#4-the-theorem-8-accounting-model.
//
// Recorder wraps any Neighborer and notes each sampled step that lands on a
// watched edge set — an out-sample x -> y as (x, y), an in-sample as the
// edge (y, x) it traversed — without moving a single RNG draw. During a
// parallel deletion batch every worker samples through one, watching the
// batch's deleted edges, so the straggler sweep after the barrier revisits
// only the edges some regrown tail stepped on
// (docs/DESIGN.md#10-deletions--windows). With nothing watched it records
// nothing and allocates nothing.
package walk
