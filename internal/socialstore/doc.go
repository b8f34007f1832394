// Package socialstore simulates the paper's "Social Store" (Section 3) —
// the distributed shared-memory database (FlockDB at Twitter) that holds
// the social graph and serves random-access adjacency queries.
//
// The store wraps a dynamic graph with (a) sharding, so per-shard access
// counts can be inspected the way an operator of a distributed store would,
// and (b) call accounting, because the paper's personalized-query analysis
// (Theorem 8, Figure 6) is entirely about the number of calls made to this
// database: a personalized PageRank or SALSA query's cost is its Social
// Store round trips, and the walk-segment store exists to keep that count
// small. Snapshot/Sub give global counter deltas; a per-caller Session
// tallies its own calls as well as the globals, which is what keeps each
// personalized query's measured round trips exactly attributable while
// concurrent arrivals and other queries share the store (the accounting
// model is docs/DESIGN.md#4-the-theorem-8-accounting-model). Optionally
// every call accrues simulated network latency so experiments can report
// wall-clock-like costs without sleeping.
//
// A write is one round trip and answers with what its caller reads next:
// AddEdge and RemoveEdge pass the graph's reply through (the endpoints'
// degrees after the write and, for a removal, the copies left), so an
// update's store calls are its one write plus one read per step of the
// walk tails it regrows (docs/DESIGN.md#1-data-flow). The degree and
// multiplicity reads remain for the straggler sweep, personalized queries
// and tests.
//
// The in-memory sharded implementation preserves the behaviour that matters
// to the paper: uniform random access to adjacency lists and an exact count
// of round trips. Nothing in the analysis depends on the store actually
// being remote.
package socialstore
