package graph

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// NodeID identifies a node. IDs need not be dense or contiguous, but dense
// IDs (the normal case: every generator and the production ID allocator
// assign 0..n-1) are served from flat per-shard row arrays instead of hash
// maps — see shard below.
type NodeID int64

// Edge is a directed edge From -> To.
type Edge struct {
	From, To NodeID
}

// String implements fmt.Stringer.
func (e Edge) String() string { return fmt.Sprintf("%d->%d", e.From, e.To) }

// denseLimit bounds the IDs served from dense row slots; rarer IDs at or
// above it (or negative) fall back to the per-shard sparse map, so a wild ID
// costs a map hit instead of gigabytes of slots.
const denseLimit = 1 << 26

// adjRow is one node's adjacency state: its out- and in-neighbor lists (both
// on the node's own shard, so a single shard lock covers every per-node
// read) and a presence flag distinguishing "known node with no edges" from
// "never seen".
type adjRow struct {
	out, in []NodeID
	present bool
}

// shard holds the adjacency rows of the nodes whose low ID bits select it.
// Rows for IDs below denseLimit live in a flat slot array (slot = id divided
// by the shard count), so the hot walk-step reads — degree, random neighbor
// — are a slice index instead of a map lookup; sparse catches the rest. The
// edges counter counts out-edges whose source is on this shard (so the
// per-shard counters sum to the global edge count).
type shard struct {
	mu     sync.RWMutex
	dense  []adjRow
	sparse map[NodeID]*adjRow
	nodes  int
	edges  int64
	// Pad shards apart so the mutexes of neighboring shards do not share a
	// cache line under write contention.
	_ [48]byte
}

// row returns v's adjacency row, or nil when v is unknown. slotBits is the
// graph's log2 shard count.
func (sh *shard) row(v NodeID, slotBits uint) *adjRow {
	if u := uint64(v); u < denseLimit {
		if slot := u >> slotBits; slot < uint64(len(sh.dense)) {
			if r := &sh.dense[slot]; r.present {
				return r
			}
		}
		return nil
	}
	return sh.sparse[v]
}

// rowCreate returns v's adjacency row, allocating it on first touch.
func (sh *shard) rowCreate(v NodeID, slotBits uint) *adjRow {
	if u := uint64(v); u < denseLimit {
		slot := u >> slotBits
		if slot >= uint64(len(sh.dense)) {
			grown := make([]adjRow, max(int(slot)+1, 2*len(sh.dense)))
			copy(grown, sh.dense)
			sh.dense = grown
		}
		r := &sh.dense[slot]
		if !r.present {
			r.present = true
			sh.nodes++
		}
		return r
	}
	r := sh.sparse[v]
	if r == nil {
		r = &adjRow{present: true}
		sh.sparse[v] = r
		sh.nodes++
	}
	return r
}

// each calls f for every known node's row. i is the shard index, needed to
// reconstruct dense IDs (v = slot<<slotBits | i).
func (sh *shard) each(i int, slotBits uint, f func(v NodeID, r *adjRow)) {
	for slot := range sh.dense {
		if r := &sh.dense[slot]; r.present {
			f(NodeID(uint64(slot)<<slotBits|uint64(i)), r)
		}
	}
	for v, r := range sh.sparse {
		f(v, r)
	}
}

// Graph is a dynamic directed multigraph, sharded by the low bits of the
// node ID. The zero value is not usable; use New or NewWithShards. All
// methods are safe for concurrent use.
type Graph struct {
	shards   []shard
	mask     uint64 // len(shards) - 1; shard of v is v & mask
	slotBits uint   // log2(len(shards)); dense slot of v is v >> slotBits
	edges    atomic.Int64
}

// New returns an empty graph with a shard count derived from GOMAXPROCS.
// sizeHint pre-sizes the per-shard row tables and may be zero.
func New(sizeHint int) *Graph {
	p := runtime.GOMAXPROCS(0)
	n := nextPow2(4 * p)
	if n < 8 {
		n = 8
	}
	if n > 256 {
		n = 256
	}
	return NewWithShards(sizeHint, n)
}

// NewWithShards returns an empty graph with an explicit shard count, rounded
// up to a power of two. sizeHint pre-sizes the row tables and may be zero.
func NewWithShards(sizeHint, shards int) *Graph {
	if shards < 1 {
		shards = 1
	}
	n := nextPow2(shards)
	g := &Graph{
		mask:     uint64(n - 1),
		slotBits: uint(bits.TrailingZeros(uint(n))),
	}
	g.shards = make([]shard, n)
	per := sizeHint / n
	for i := range g.shards {
		// Pre-size with length, not capacity: rowCreate grows on slot >=
		// len(dense), so spare capacity alone would never be used.
		g.shards[i].dense = make([]adjRow, per)
		g.shards[i].sparse = make(map[NodeID]*adjRow)
	}
	return g
}

func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// NumShards returns the number of lock-striped shards.
func (g *Graph) NumShards() int { return len(g.shards) }

func (g *Graph) shardOf(v NodeID) int {
	// Low bits select the shard so dense IDs round-robin across shards and
	// the per-shard slot (v >> slotBits) stays dense.
	return int(uint64(v) & g.mask)
}

// lockAll / runlockAll acquire every shard in index order, the global lock
// order that makes multi-shard operations deadlock-free.
func (g *Graph) lockAll() {
	for i := range g.shards {
		g.shards[i].mu.Lock()
	}
}

func (g *Graph) unlockAll() {
	for i := range g.shards {
		g.shards[i].mu.Unlock()
	}
}

func (g *Graph) rlockAll() {
	for i := range g.shards {
		g.shards[i].mu.RLock()
	}
}

func (g *Graph) runlockAll() {
	for i := range g.shards {
		g.shards[i].mu.RUnlock()
	}
}

// AddNode ensures v exists (possibly with no edges). Adding an existing node
// is a no-op.
func (g *Graph) AddNode(v NodeID) {
	sh := &g.shards[g.shardOf(v)]
	sh.mu.Lock()
	sh.rowCreate(v, g.slotBits)
	sh.mu.Unlock()
}

// lockPair locks the shards of u and v in index order and returns them.
// When both nodes share a shard only one lock is taken.
func (g *Graph) lockPair(u, v NodeID) (su, sv *shard) {
	i, j := g.shardOf(u), g.shardOf(v)
	su, sv = &g.shards[i], &g.shards[j]
	if i == j {
		su.mu.Lock()
		return su, su
	}
	if i < j {
		su.mu.Lock()
		sv.mu.Lock()
	} else {
		sv.mu.Lock()
		su.mu.Lock()
	}
	return su, sv
}

func unlockPair(su, sv *shard) {
	su.mu.Unlock()
	if sv != su {
		sv.mu.Unlock()
	}
}

// AddEdge inserts the directed edge u -> v, implicitly adding missing
// endpoints. Parallel edges are permitted (the graph is a multigraph); the
// caller decides whether duplicates make sense for its workload.
//
// The reply is u's out-degree and v's in-degree after the insert, read under
// the shard locks the insert holds: exact however other writers race, and
// the degrees the repair rule needs without a second read.
func (g *Graph) AddEdge(u, v NodeID) (out, in int) {
	su, sv := g.lockPair(u, v)
	// Create both rows before taking either pointer: growing a shard's dense
	// array relocates its rows, so a pointer taken before the second
	// rowCreate could dangle when u and v share a shard.
	su.rowCreate(u, g.slotBits)
	sv.rowCreate(v, g.slotBits)
	ru := su.row(u, g.slotBits)
	rv := sv.row(v, g.slotBits)
	ru.out = append(ru.out, v)
	rv.in = append(rv.in, u)
	out, in = len(ru.out), len(rv.in)
	su.edges++
	g.edges.Add(1)
	unlockPair(su, sv)
	return out, in
}

// RemoveEdge deletes one copy of u -> v and reports whether an edge was
// removed. It swap-deletes the first occurrence of v from u's out-row and the
// first occurrence of u from v's in-row, so replaying an event stream
// reproduces both rows' order. When u -> v has a single copy, v's in-row
// holds u exactly once and is searched from its newest end, where AddEdge
// appends: deleting a young edge into a hub then costs the distance from
// that end, not the hub's in-degree. The out-row is always scanned in full,
// O(out-degree).
//
// On a removal the reply also carries u's out-degree and v's in-degree after
// it and the copies of u -> v left, all read under the shard locks the
// removal holds. The out-row scan walks past every later copy anyway, so
// counting them is free. When ok is false the three counts are zero.
func (g *Graph) RemoveEdge(u, v NodeID) (out, in, left int, ok bool) {
	su, sv := g.lockPair(u, v)
	defer unlockPair(su, sv)
	ru := su.row(u, g.slotBits)
	if ru == nil {
		return 0, 0, 0, false
	}
	i := slices.Index(ru.out, v)
	if i < 0 {
		return 0, 0, 0, false
	}
	left = count(ru.out[i+1:], v)
	rv := sv.row(v, g.slotBits)
	j := -1
	if rv != nil {
		if left > 0 {
			j = slices.Index(rv.in, u)
		} else {
			j = lastIndex(rv.in, u)
		}
	}
	if j < 0 {
		// The two adjacency tables are updated together, so a missing
		// reverse entry means internal corruption.
		panic("graph: adjacency tables out of sync")
	}
	swapDelete(&ru.out, i)
	swapDelete(&rv.in, j)
	su.edges--
	g.edges.Add(-1)
	return len(ru.out), len(rv.in), left, true
}

// count returns the number of occurrences of target in s.
func count(s []NodeID, target NodeID) int {
	n := 0
	for _, x := range s {
		if x == target {
			n++
		}
	}
	return n
}

// lastIndex returns the index of the last occurrence of target in s, or -1.
func lastIndex(s []NodeID, target NodeID) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == target {
			return i
		}
	}
	return -1
}

// swapDelete removes (*s)[i] by moving the last element into its place.
func swapDelete(s *[]NodeID, i int) {
	last := len(*s) - 1
	(*s)[i] = (*s)[last]
	*s = (*s)[:last]
}

// HasEdge reports whether at least one edge u -> v exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	sh := &g.shards[g.shardOf(u)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if r := sh.row(u, g.slotBits); r != nil {
		return slices.Contains(r.out, v)
	}
	return false
}

// CountEdges returns the multiplicity of u -> v: how many parallel copies of
// the edge exist. A deletion's repair takes its multiplicity from
// RemoveEdge's reply instead; this read serves the straggler sweep's
// is-it-still-absent check and tests.
func (g *Graph) CountEdges(u, v NodeID) int {
	sh := &g.shards[g.shardOf(u)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if r := sh.row(u, g.slotBits); r != nil {
		return count(r.out, v)
	}
	return 0
}

// HasNode reports whether v is present.
func (g *Graph) HasNode(v NodeID) bool {
	sh := &g.shards[g.shardOf(v)]
	sh.mu.RLock()
	ok := sh.row(v, g.slotBits) != nil
	sh.mu.RUnlock()
	return ok
}

// NumNodes returns the number of nodes. With concurrent writers the result
// is a per-shard-consistent snapshot.
func (g *Graph) NumNodes() int {
	n := 0
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		n += sh.nodes
		sh.mu.RUnlock()
	}
	return n
}

// NumEdges returns the number of edges (counting multiplicity).
func (g *Graph) NumEdges() int {
	return int(g.edges.Load())
}

// ShardEdges returns, per shard, the number of edges whose source node lives
// on that shard — the load-balance view a sharded deployment would monitor.
func (g *Graph) ShardEdges() []int64 {
	out := make([]int64, len(g.shards))
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		out[i] = sh.edges
		sh.mu.RUnlock()
	}
	return out
}

// OutDegree returns the out-degree of v (0 for unknown nodes).
func (g *Graph) OutDegree(v NodeID) int {
	sh := &g.shards[g.shardOf(v)]
	sh.mu.RLock()
	d := 0
	if r := sh.row(v, g.slotBits); r != nil {
		d = len(r.out)
	}
	sh.mu.RUnlock()
	return d
}

// InDegree returns the in-degree of v (0 for unknown nodes).
func (g *Graph) InDegree(v NodeID) int {
	sh := &g.shards[g.shardOf(v)]
	sh.mu.RLock()
	d := 0
	if r := sh.row(v, g.slotBits); r != nil {
		d = len(r.in)
	}
	sh.mu.RUnlock()
	return d
}

// OutNeighbors returns a copy of v's out-neighbor list.
func (g *Graph) OutNeighbors(v NodeID) []NodeID {
	sh := &g.shards[g.shardOf(v)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if r := sh.row(v, g.slotBits); r != nil {
		return append([]NodeID(nil), r.out...)
	}
	return nil
}

// InNeighbors returns a copy of v's in-neighbor list.
func (g *Graph) InNeighbors(v NodeID) []NodeID {
	sh := &g.shards[g.shardOf(v)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if r := sh.row(v, g.slotBits); r != nil {
		return append([]NodeID(nil), r.in...)
	}
	return nil
}

// RandomOutNeighbor returns a uniformly random out-neighbor of v. ok is false
// when v has no outgoing edges (a dangling node).
func (g *Graph) RandomOutNeighbor(v NodeID, rng *rand.Rand) (w NodeID, ok bool) {
	sh := &g.shards[g.shardOf(v)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r := sh.row(v, g.slotBits)
	if r == nil || len(r.out) == 0 {
		return 0, false
	}
	return r.out[rng.IntN(len(r.out))], true
}

// RandomInNeighbor returns a uniformly random in-neighbor of v. ok is false
// when v has no incoming edges.
func (g *Graph) RandomInNeighbor(v NodeID, rng *rand.Rand) (w NodeID, ok bool) {
	sh := &g.shards[g.shardOf(v)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r := sh.row(v, g.slotBits)
	if r == nil || len(r.in) == 0 {
		return 0, false
	}
	return r.in[rng.IntN(len(r.in))], true
}

// Batcher amortizes shard-lock acquisition over a burst of lockstep walkers.
// Each worker goroutine owns one Batcher (it carries reusable per-shard
// scratch and must not be shared); sampling a burst of B walkers costs at
// most NumShards lock acquisitions instead of B.
type Batcher struct {
	g       *Graph
	buckets [][]int32
}

// NewBatcher returns a Batcher for g. Not safe for concurrent use; create
// one per worker.
func (g *Graph) NewBatcher() *Batcher {
	return &Batcher{g: g, buckets: make([][]int32, len(g.shards))}
}

// RandomOutNeighbors samples, for each i, a uniformly random out-neighbor of
// cur[i] into next[i], setting ok[i] to false when cur[i] is dangling. The
// three slices must have equal length. Walkers are grouped by shard so each
// shard's read lock is taken once per call.
func (b *Batcher) RandomOutNeighbors(cur, next []NodeID, ok []bool, rng *rand.Rand) {
	if len(next) != len(cur) || len(ok) != len(cur) {
		panic("graph: Batcher slice lengths disagree")
	}
	for s := range b.buckets {
		b.buckets[s] = b.buckets[s][:0]
	}
	for i, v := range cur {
		s := b.g.shardOf(v)
		b.buckets[s] = append(b.buckets[s], int32(i))
	}
	for s, idx := range b.buckets {
		if len(idx) == 0 {
			continue
		}
		sh := &b.g.shards[s]
		sh.mu.RLock()
		for _, i := range idx {
			r := sh.row(cur[i], b.g.slotBits)
			if r == nil || len(r.out) == 0 {
				ok[i] = false
				continue
			}
			next[i] = r.out[rng.IntN(len(r.out))]
			ok[i] = true
		}
		sh.mu.RUnlock()
	}
}

// Nodes returns all node IDs in ascending order. The slice is freshly
// allocated.
func (g *Graph) Nodes() []NodeID {
	nodes := make([]NodeID, 0, g.NumNodes())
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		sh.each(i, g.slotBits, func(v NodeID, _ *adjRow) {
			nodes = append(nodes, v)
		})
		sh.mu.RUnlock()
	}
	slices.Sort(nodes)
	return nodes
}

// Edges returns every edge (with multiplicity) in unspecified order, as a
// globally consistent snapshot.
func (g *Graph) Edges() []Edge {
	g.rlockAll()
	defer g.runlockAll()
	edges := make([]Edge, 0, g.edges.Load())
	for i := range g.shards {
		g.shards[i].each(i, g.slotBits, func(u NodeID, r *adjRow) {
			for _, v := range r.out {
				edges = append(edges, Edge{u, v})
			}
		})
	}
	return edges
}

// Clone returns a deep copy of the graph (same shard count).
func (g *Graph) Clone() *Graph {
	g.rlockAll()
	defer g.runlockAll()
	c := &Graph{mask: g.mask, slotBits: g.slotBits}
	c.shards = make([]shard, len(g.shards))
	var total int64
	for i := range g.shards {
		src, dst := &g.shards[i], &c.shards[i]
		dst.dense = make([]adjRow, len(src.dense))
		for slot := range src.dense {
			r := &src.dense[slot]
			if !r.present {
				continue
			}
			dst.dense[slot] = adjRow{
				out:     append([]NodeID(nil), r.out...),
				in:      append([]NodeID(nil), r.in...),
				present: true,
			}
		}
		dst.sparse = make(map[NodeID]*adjRow, len(src.sparse))
		for v, r := range src.sparse {
			dst.sparse[v] = &adjRow{
				out:     append([]NodeID(nil), r.out...),
				in:      append([]NodeID(nil), r.in...),
				present: true,
			}
		}
		dst.nodes = src.nodes
		dst.edges = src.edges
		total += src.edges
	}
	c.edges.Store(total)
	return c
}

// Validate checks internal invariants (forward/backward adjacency agreement,
// shard/slot placement, and the edge counters). Intended for tests and
// debugging; one pass over every row, counting edges in a map: O(n + m)
// expected time and O(distinct edges) memory.
func (g *Graph) Validate() error {
	g.rlockAll()
	defer g.runlockAll()
	fwd, bwd := 0, 0
	var err error
	count := make(map[Edge]int)
	for i := range g.shards {
		sh := &g.shards[i]
		var shFwd int64
		nodes := 0
		sh.each(i, g.slotBits, func(v NodeID, r *adjRow) {
			nodes++
			if err == nil && g.shardOf(v) != i {
				err = fmt.Errorf("graph: node %d row on shard %d, want %d", v, i, g.shardOf(v))
			}
			if err == nil && uint64(v) >= denseLimit {
				if _, ok := sh.sparse[v]; !ok {
					err = fmt.Errorf("graph: node %d outside dense range but not in sparse table", v)
				}
			}
			shFwd += int64(len(r.out))
			bwd += len(r.in)
			for _, w := range r.out {
				count[Edge{v, w}]++
			}
			for _, u := range r.in {
				count[Edge{u, v}]--
			}
		})
		if err != nil {
			return err
		}
		if nodes != sh.nodes {
			return fmt.Errorf("graph: shard %d tracks %d nodes, found %d", i, sh.nodes, nodes)
		}
		if shFwd != sh.edges {
			return fmt.Errorf("graph: shard %d counter=%d want %d", i, sh.edges, shFwd)
		}
		fwd += int(shFwd)
	}
	if fwd != bwd || int64(fwd) != g.edges.Load() {
		return fmt.Errorf("graph: edge counts disagree: out=%d in=%d counter=%d", fwd, bwd, g.edges.Load())
	}
	for e, c := range count {
		if c != 0 {
			return fmt.Errorf("graph: edge %v multiplicity mismatch (%+d)", e, c)
		}
	}
	return nil
}
