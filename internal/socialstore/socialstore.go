package socialstore

import (
	"math/rand/v2"
	"sync/atomic"
	"time"

	"fastppr/internal/graph"
)

// Metrics is a snapshot of the store's access counters.
type Metrics struct {
	Reads            int64         // adjacency/degree read calls
	Writes           int64         // edge mutations
	Fetches          int64         // full "fetch" operations (Section 3)
	SimulatedLatency time.Duration // accumulated simulated round-trip time
	PerShardReads    []int64       // reads by shard
}

// Store is a sharded, call-counted facade over the social graph. All methods
// are safe for concurrent use.
type Store struct {
	g          *graph.Graph
	shards     int
	perCall    time.Duration
	reads      atomic.Int64
	writes     atomic.Int64
	fetches    atomic.Int64
	latency    atomic.Int64 // nanoseconds
	shardReads []atomic.Int64
}

// Option configures a Store.
type Option func(*Store)

// WithShards sets the number of simulated shards (default 16).
func WithShards(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.shards = n
		}
	}
}

// WithSimulatedLatency accrues d of simulated latency per store call. No
// actual sleeping happens; the total is reported in Metrics.
func WithSimulatedLatency(d time.Duration) Option {
	return func(s *Store) { s.perCall = d }
}

// New wraps g. The graph remains owned by the caller; mutations must go
// through the store so write counters stay meaningful.
func New(g *graph.Graph, opts ...Option) *Store {
	s := &Store{g: g, shards: 16}
	for _, o := range opts {
		o(s)
	}
	s.shardReads = make([]atomic.Int64, s.shards)
	return s
}

// Graph exposes the underlying graph for components that are colocated with
// the store (the paper's PageRank Store is "emulated on top of FlockDB" and
// does not pay a round trip per walk step during local maintenance).
func (s *Store) Graph() *graph.Graph { return s.g }

func (s *Store) shardOf(v graph.NodeID) int {
	h := uint64(v) * 0x9e3779b97f4a7c15 // Fibonacci hashing for spread
	return int(h % uint64(s.shards))
}

func (s *Store) countRead(v graph.NodeID) {
	s.reads.Add(1)
	s.shardReads[s.shardOf(v)].Add(1)
	if s.perCall > 0 {
		s.latency.Add(int64(s.perCall))
	}
}

// AddEdge writes the edge u -> v: one write, no read. The reply is the
// graph's (graph.Graph.AddEdge): u's out-degree and v's in-degree after the
// write, which is everything an arrival's repair would otherwise read back.
func (s *Store) AddEdge(u, v graph.NodeID) (out, in int) {
	s.writes.Add(1)
	if s.perCall > 0 {
		s.latency.Add(int64(s.perCall))
	}
	return s.g.AddEdge(u, v)
}

// RemoveEdge deletes one occurrence of u -> v, reporting whether it existed:
// one write, no read, hit or miss. On a hit the reply also carries u's
// out-degree, v's in-degree and the copies of u -> v left after the write
// (graph.Graph.RemoveEdge) — a deletion's repair needs nothing else.
func (s *Store) RemoveEdge(u, v graph.NodeID) (out, in, left int, ok bool) {
	s.writes.Add(1)
	if s.perCall > 0 {
		s.latency.Add(int64(s.perCall))
	}
	return s.g.RemoveEdge(u, v)
}

// CountEdges reads the multiplicity of u -> v (one store call, charged to
// u's shard). The straggler sweep after a parallel deletion batch reads it
// to tell a still-absent edge from a re-added one.
func (s *Store) CountEdges(u, v graph.NodeID) int {
	s.countRead(u)
	return s.g.CountEdges(u, v)
}

// OutNeighbors reads v's out-adjacency list (one store call).
func (s *Store) OutNeighbors(v graph.NodeID) []graph.NodeID {
	s.countRead(v)
	return s.g.OutNeighbors(v)
}

// InNeighbors reads v's in-adjacency list (one store call).
func (s *Store) InNeighbors(v graph.NodeID) []graph.NodeID {
	s.countRead(v)
	return s.g.InNeighbors(v)
}

// OutDegree reads v's out-degree (one store call).
func (s *Store) OutDegree(v graph.NodeID) int {
	s.countRead(v)
	return s.g.OutDegree(v)
}

// InDegree reads v's in-degree (one store call). The backward half of SALSA's
// bipartite reroute rule is driven by the target's in-degree the way the
// forward half is driven by the source's out-degree; an arrival or deletion
// takes it from its write's reply, and the straggler sweep reads it here.
func (s *Store) InDegree(v graph.NodeID) int {
	s.countRead(v)
	return s.g.InDegree(v)
}

// RandomOutNeighbor samples a uniformly random out-neighbor of v (one store
// call). ok is false when v is dangling. With the matching In variant this
// makes the store a walk.Neighborer, so walk regeneration inside the
// incremental maintainers is call-accounted per step.
func (s *Store) RandomOutNeighbor(v graph.NodeID, rng *rand.Rand) (graph.NodeID, bool) {
	s.countRead(v)
	return s.g.RandomOutNeighbor(v, rng)
}

// RandomInNeighbor samples a uniformly random in-neighbor of v (one store
// call). ok is false when v has no incoming edges.
func (s *Store) RandomInNeighbor(v graph.NodeID, rng *rand.Rand) (graph.NodeID, bool) {
	s.countRead(v)
	return s.g.RandomInNeighbor(v, rng)
}

// CountFetch records one fetch operation against the store. The fetch
// payload itself (neighbors + walk segments) is assembled by the
// personalized-query layer, which colocates the walk-segment store; this
// counter is the quantity Theorem 8 bounds.
func (s *Store) CountFetch() {
	s.fetches.Add(1)
	if s.perCall > 0 {
		s.latency.Add(int64(s.perCall))
	}
}

// CallSnapshot is a cheap point-in-time copy of the scalar call counters,
// without the per-shard breakdown Metrics materializes. The personalized
// query layer takes one before and one after each query; the difference is
// the query's round-trip count, the quantity Theorem 8 bounds.
type CallSnapshot struct {
	Reads   int64
	Writes  int64
	Fetches int64
}

// Calls returns the total store round trips in the snapshot.
func (c CallSnapshot) Calls() int64 { return c.Reads + c.Writes + c.Fetches }

// Sub returns the counter deltas c - prev.
func (c CallSnapshot) Sub(prev CallSnapshot) CallSnapshot {
	return CallSnapshot{
		Reads:   c.Reads - prev.Reads,
		Writes:  c.Writes - prev.Writes,
		Fetches: c.Fetches - prev.Fetches,
	}
}

// Snapshot returns the current scalar call counters. With concurrent callers
// the three loads are not a single atomic unit; per-query accounting should
// bracket a serialized query.
func (s *Store) Snapshot() CallSnapshot {
	return CallSnapshot{
		Reads:   s.reads.Load(),
		Writes:  s.writes.Load(),
		Fetches: s.fetches.Load(),
	}
}

// ResetMetrics zeroes all counters.
func (s *Store) ResetMetrics() {
	s.reads.Store(0)
	s.writes.Store(0)
	s.fetches.Store(0)
	s.latency.Store(0)
	for i := range s.shardReads {
		s.shardReads[i].Store(0)
	}
}

// Session is a per-caller accounting view of the store: every read made
// through it counts against both the store's global counters and the
// session's own tally. A concurrent personalized query owns one session, so
// its Theorem 8 round-trip count stays exact even while maintainer arrivals
// and other queries hammer the same store — global snapshot deltas stop
// being attributable the moment there is more than one caller. A Session is
// owned by a single goroutine and is not safe for concurrent use; it
// implements walk.Neighborer like the store itself.
type Session struct {
	s       *Store
	reads   int64
	fetches int64
}

// NewSession returns a fresh per-caller accounting view.
func (s *Store) NewSession() *Session { return &Session{s: s} }

// RandomOutNeighbor samples through the store, tallying the read locally.
func (c *Session) RandomOutNeighbor(v graph.NodeID, rng *rand.Rand) (graph.NodeID, bool) {
	c.reads++
	return c.s.RandomOutNeighbor(v, rng)
}

// RandomInNeighbor samples through the store, tallying the read locally.
func (c *Session) RandomInNeighbor(v graph.NodeID, rng *rand.Rand) (graph.NodeID, bool) {
	c.reads++
	return c.s.RandomInNeighbor(v, rng)
}

// OutDegree reads through the store, tallying locally.
func (c *Session) OutDegree(v graph.NodeID) int {
	c.reads++
	return c.s.OutDegree(v)
}

// InDegree reads through the store, tallying locally.
func (c *Session) InDegree(v graph.NodeID) int {
	c.reads++
	return c.s.InDegree(v)
}

// CountFetch records one fetch operation against both layers.
func (c *Session) CountFetch() {
	c.fetches++
	c.s.CountFetch()
}

// Snapshot returns the session's own call tally (not the store's globals).
func (c *Session) Snapshot() CallSnapshot {
	return CallSnapshot{Reads: c.reads, Fetches: c.fetches}
}

// Metrics returns a snapshot of the counters.
func (s *Store) Metrics() Metrics {
	m := Metrics{
		Reads:            s.reads.Load(),
		Writes:           s.writes.Load(),
		Fetches:          s.fetches.Load(),
		SimulatedLatency: time.Duration(s.latency.Load()),
		PerShardReads:    make([]int64, s.shards),
	}
	for i := range s.shardReads {
		m.PerShardReads[i] = s.shardReads[i].Load()
	}
	return m
}
