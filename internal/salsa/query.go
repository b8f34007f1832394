package salsa

import (
	"math/rand/v2"
	"slices"
	"sync"

	"fastppr/internal/graph"
	"fastppr/internal/topk"
	"fastppr/internal/walk"
	"fastppr/internal/walkstore"
)

// QueryStats is the per-query cost accounting the paper's Theorem 8 is
// about: how many Social Store round trips one personalized query needed.
type QueryStats struct {
	Source graph.NodeID
	// Walks is the number of Monte Carlo walks the query ran (Config.QueryWalks).
	Walks int
	// Steps is the total number of walk steps taken, stitched or bare.
	Steps int64
	// StitchedSegments counts the stored segments spliced into query walks;
	// StitchedSteps the steps those splices covered for free.
	StitchedSegments int64
	StitchedSteps    int64
	// BareSteps counts the alternating steps attempted through the Social
	// Store, one read call each (including the final probe of a walk that
	// dies at a node with no edge in the pending direction).
	BareSteps int64
	// StoreCalls is the measured Social Store read count across the query,
	// tallied by the query's own store session — exact even while maintainer
	// arrivals and other queries run concurrently. It equals BareSteps by
	// construction, and tests assert the two never drift.
	StoreCalls int64
	// Theorem8Bound is the accounting-model ceiling on the expected store
	// calls for this query: max(0, Walks - storedSegments(source)) walks
	// start without a stored segment, and each costs at most its full
	// expected length 2(1-eps)/eps in store calls. Stitching typically lands
	// far below it; see Theorem8Bound.
	Theorem8Bound float64
	// Stream is the PCG stream index this query's RNG ran on: the replayable
	// half of the query's identity. Re-running the query with
	// PersonalizedStream(Source, Stream) against an unchanged store
	// reproduces the result bitwise — the serving tier's cache-correctness
	// tests are built on this.
	Stream uint64
	// StripeMask is the query's read footprint over the walk store's counter
	// stripes: bit i is set iff the query read any per-node state (stored
	// segment lists, spliced paths) or Social Store adjacency of a node in
	// stripe i. The result can only change if a mutation lands in a masked
	// stripe, so the mask is the cache invalidation key: compare the masked
	// stripes' StripeEpoch stamps (and the serving tier's per-stripe edge
	// revisions) before reusing a cached result.
	StripeMask uint64
	// StartEpoch and EndEpoch bracket the query against the walk store's
	// mutation epoch: EndEpoch - StartEpoch is how many segment mutations
	// landed while the query ran. Equal under a quiet store; under a live
	// storm the gap quantifies the snapshot drift the stitched segments may
	// span (each individual splice is still a coherent stored path thanks to
	// the arena's stable slices).
	StartEpoch int64
	EndEpoch   int64
}

// Query holds the outcome of one personalized SALSA query: empirical
// authority- and hub-side visit distributions of QueryWalks alternating
// eps-reset walks from the source, plus the store-call accounting. The
// counts are kept per visited node in first-visit order, unsorted: no score
// depends on the order they are stored in, and ranking breaks ties by ID.
type Query struct {
	auth      []nodeCount
	hub       []nodeCount
	authTotal int64
	hubTotal  int64
	stats     QueryStats
}

// nodeCount is one node's visit count on one side of a query.
type nodeCount struct {
	v graph.NodeID
	n int64
}

// Stats returns the query's cost accounting.
func (q *Query) Stats() QueryStats { return q.stats }

// Authority returns the personalized authority score of v relative to the
// query source: the fraction of authority-side visits that landed on v. It
// scans the query's counts, O(distinct nodes visited); rank through TopK or
// AuthorityAll rather than calling it per node.
func (q *Query) Authority(v graph.NodeID) float64 {
	return share(q.auth, q.authTotal, v)
}

// Hub returns the personalized hub score of v relative to the query source.
// Like Authority it scans the query's counts, O(distinct nodes visited).
func (q *Query) Hub(v graph.NodeID) float64 {
	return share(q.hub, q.hubTotal, v)
}

// share is v's count in counts divided by total, 0 when v is absent.
func share(counts []nodeCount, total int64, v graph.NodeID) float64 {
	for _, c := range counts {
		if c.v == v {
			return float64(c.n) / float64(total)
		}
	}
	return 0
}

// AuthorityAll returns the full personalized authority distribution. Nodes
// never visited on the authority side are absent.
func (q *Query) AuthorityAll() map[graph.NodeID]float64 {
	out := make(map[graph.NodeID]float64, len(q.auth))
	for _, c := range q.auth {
		out[c.v] = float64(c.n) / float64(q.authTotal)
	}
	return out
}

// TopK returns the k highest personalized authority scores, descending,
// ties toward lower IDs: the raw visit counts streamed through the collector,
// bit-identical to ranking AuthorityAll without building it.
func (q *Query) TopK(k int) []topk.Item {
	return topk.TopKShares(k, func(yield func(graph.NodeID, int64)) {
		for _, c := range q.auth {
			yield(c.v, c.n)
		}
	})
}

// Theorem8Bound is the query layer's accounting model for the paper's
// Theorem 8: with `stored` unused stored segments at the source, only the
// walks beyond them ever touch the Social Store, and a walk's store calls
// are bounded by its attempted steps, 2(1-eps)/eps in expectation. The
// returned value therefore bounds the expected store calls of a q-walk
// query; the measured count sits far below it because bare walks stitch
// back onto stored segments after a step or two.
func Theorem8Bound(q, stored int, eps float64) float64 {
	bare := q - stored
	if bare < 0 {
		bare = 0
	}
	return float64(bare) * 2 * (1 - eps) / eps
}

// cursor is a query's stitching state at one (node, pending direction): the
// node's stored segments usable when the pending step has that direction,
// snapshotted once per query into the scratch's segs[off:off+n], and how
// many of them this query has consumed.
type cursor struct {
	v            graph.NodeID
	off, n, used int
}

// queryDenseLimit bounds the node IDs a query scratch keeps in dense slots:
// walkstore's dense-slot rule (docs/DESIGN.md#7-the-pending-position-index)
// at a query's scale. IDs in [0, queryDenseLimit) index slices that grow only
// to the highest ID a query has visited; negative and larger IDs go to a
// map, so a wild ID costs a map hit instead of a huge slice.
const queryDenseLimit = 1 << 22

// scratch is one query's tally space, taken from scratchPool for the
// query's duration, so concurrent queries never share one. Per dense ID it
// holds an authority and a hub count (8 bytes each) and a cursor index per
// direction (4 bytes each): 24 bytes per ID up to the highest ID visited,
// at most 96 MiB at queryDenseLimit (720 KB on a 30,000-node graph). On top
// come 32 bytes per (node, direction) cursor, 8 per node in each touched
// list, 8 per snapshotted segment ID and a map entry per wild ID, all sized
// by what one query visits.
// drain leaves every slot zero again, resetting exactly the slots the query
// used.
type scratch struct {
	auth, hub tally
	// at[dir] maps a node to 1 + its cursor's index in cursors[dir]; 0 is
	// no cursor yet. cursors[dir] is at[dir]'s touched list.
	at      [2]slots[int32]
	cursors [2][]cursor
	// segs backs every cursor's owner-list snapshot.
	segs []walkstore.SegmentID
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// cursor returns v's cursor for pending direction dir, snapshotting v's
// stored dir-side segments into segs on the query's first visit.
func (sc *scratch) cursor(ws *walkstore.Store, v graph.NodeID, dir walk.Direction) *cursor {
	p := sc.at[dir].at(v)
	if *p == 0 {
		off := len(sc.segs)
		sc.segs = ws.AppendOwnedSided(sc.segs, v, walkstore.Side(dir))
		sc.cursors[dir] = append(sc.cursors[dir], cursor{v: v, off: off, n: len(sc.segs) - off})
		*p = int32(len(sc.cursors[dir]))
	}
	return &sc.cursors[dir][*p-1]
}

// drain returns the authority and hub counts in first-visit order, sharing
// one allocation, and resets the scratch for the next query.
func (sc *scratch) drain() (auth, hub []nodeCount) {
	out := make([]nodeCount, 0, len(sc.auth.touched)+len(sc.hub.touched))
	out = sc.auth.drain(out)
	na := len(out)
	out = sc.hub.drain(out)
	for dir := range sc.cursors {
		for _, c := range sc.cursors[dir] {
			*sc.at[dir].at(c.v) = 0
		}
		sc.at[dir].clearSparse()
		sc.cursors[dir] = sc.cursors[dir][:0]
	}
	sc.segs = sc.segs[:0]
	return out[:na:na], out[na:]
}

// tally counts one side's visits per node.
type tally struct {
	n       slots[int64]
	touched []graph.NodeID // nodes with a nonzero count, in first-visit order
}

func (t *tally) add(v graph.NodeID) {
	p := t.n.at(v)
	if *p == 0 {
		t.touched = append(t.touched, v)
	}
	*p++
}

// drain appends the counts to dst in first-visit order and zeroes them.
func (t *tally) drain(dst []nodeCount) []nodeCount {
	for _, v := range t.touched {
		p := t.n.at(v)
		dst = append(dst, nodeCount{v, *p})
		*p = 0
	}
	t.n.clearSparse()
	t.touched = t.touched[:0]
	return dst
}

// slots maps node IDs to values by the dense-slot rule of queryDenseLimit;
// a slot never written reads 0.
type slots[T int32 | int64] struct {
	dense []T
	// sparse maps a wild ID to its slot in wild.
	sparse map[graph.NodeID]int
	wild   []T
}

// at returns v's slot, creating it on first use. The pointer is valid until
// the next call.
func (s *slots[T]) at(v graph.NodeID) *T {
	if u := uint64(v); u < uint64(len(s.dense)) {
		return &s.dense[u]
	}
	return s.grow(v)
}

func (s *slots[T]) grow(v graph.NodeID) *T {
	if u := uint64(v); u < queryDenseLimit {
		// Slots past len were never written, so a reslice within the
		// capacity exposes only zeros.
		s.dense = slices.Grow(s.dense, int(u)+1-len(s.dense))[:u+1]
		return &s.dense[u]
	}
	i, ok := s.sparse[v]
	if !ok {
		if s.sparse == nil {
			s.sparse = make(map[graph.NodeID]int)
		}
		i = len(s.wild)
		s.sparse[v] = i
		s.wild = append(s.wild, 0)
	}
	return &s.wild[i]
}

// clearSparse forgets every wild ID; dense slots are the caller's to zero.
func (s *slots[T]) clearSparse() {
	if len(s.wild) > 0 {
		clear(s.sparse)
		s.wild = s.wild[:0]
	}
}

// Personalized runs a personalized SALSA query from source: QueryWalks
// alternating eps-reset walks, starting forward (source on the hub side).
// Each walk greedily splices a stored, not-yet-used segment of its current
// node — by memorylessness the splice finishes the walk exactly as fresh
// sampling would — and only when the current node's segments are exhausted
// does it take single steps through the call-accounted Social Store. Every
// stored segment is used at most once per query, so the q walks stay
// independent.
//
// Queries are read-mostly and run concurrently with updates and with each
// other: the per-node segment lists and every spliced path are counter-
// stripe/stable-slice snapshots, the store calls are tallied by a private
// session, and the walk store's mutation epoch is stamped into QueryStats so
// callers can see how much the store moved mid-query. Each query draws from
// its own PCG stream keyed by (Seed, query index), so a query is
// reproducible given its index even though queries interleave freely.
func (m *Maintainer) Personalized(source graph.NodeID) *Query {
	qi := m.cnt.queries.Add(1)
	return m.PersonalizedStream(source, QueryStream(uint64(qi), m.walks.Epoch()))
}

// PersonalizedStream is Personalized on an explicit PCG stream index instead
// of the auto-assigned QueryStream. Two calls with the same stream against an
// unchanged store are bitwise identical — this is the replay entry point the
// serving tier and the cache-correctness tests use to recompute a cached
// result for comparison.
func (m *Maintainer) PersonalizedStream(source graph.NodeID, stream uint64) *Query {
	rng := rand.New(rand.NewPCG(m.cfg.Seed, stream))
	sc := scratchPool.Get().(*scratch)
	q := m.personalized(source, rng, sc)
	scratchPool.Put(sc)
	q.stats.Stream = stream
	return q
}

// QueryStream derives the PCG stream index for the qi-th query issued while
// the walk store's mutation epoch was epoch. Salting with the epoch fixes the
// post-recovery replay bug: the query counter is process-lifetime, so after a
// crash and Recover it restarts at 0 and counter-only streams would replay
// the pre-crash RNG sequences verbatim. A recovered store has advanced its
// epoch past the original process's early queries' stamps, so the streams
// diverge; two runs repeat a stream only at an identical (counter, epoch)
// pair — identical store state — where determinism is exactly what is wanted.
// The mix is a splitmix64 finalizer (a bijection, so it adds no collisions of
// its own).
func QueryStream(qi uint64, epoch int64) uint64 {
	z := qi + 0x9e3779b97f4a7c15*uint64(epoch+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// The stripe mask is a uint64 bitmap; this fails to compile if the walk
// store ever grows past 64 counter stripes.
const _ uint64 = 1 << (walkstore.StripeCount - 1)

// PersonalizedTopK returns the k best personalized authorities for source —
// the paper's "top-k personalized page ranks" served online from the
// maintained store.
func (m *Maintainer) PersonalizedTopK(source graph.NodeID, k int) []topk.Item {
	return m.Personalized(source).TopK(k)
}

// Authority returns the personalized authority score of v relative to u
// from a fresh query.
func (m *Maintainer) Authority(u, v graph.NodeID) float64 {
	return m.Personalized(u).Authority(v)
}

func (m *Maintainer) personalized(source graph.NodeID, rng *rand.Rand, sc *scratch) *Query {
	eps := m.cfg.Eps
	nWalks := m.cfg.queryWalks()
	q := &Query{}
	q.stats.Source = source
	q.stats.Walks = nWalks
	q.stats.StartEpoch = m.walks.Epoch()
	q.stats.StripeMask = 1 << uint(walkstore.StripeOf(source))

	sess := m.soc.NewSession()
	// Every walk starts at the source's forward cursor; the length of its
	// snapshot is the Theorem 8 input.
	stored := sc.cursor(m.walks, source, walk.Forward).n

	for w := 0; w < nWalks; w++ {
		cur := source
		dir := walk.Forward
		sc.hub.add(source)
		q.hubTotal++
		for {
			// Every node whose state this iteration may read — its stored
			// segment list, or its adjacency through a bare step — lands in
			// the read footprint. Spliced path nodes are added below.
			q.stats.StripeMask |= 1 << uint(walkstore.StripeOf(cur))
			if c := sc.cursor(m.walks, cur, dir); c.used < c.n {
				// Splice: the stored segment is a full sample of the walk's
				// remainder (it ended in a reset or a dead end), so it
				// finishes this walk with zero store calls. The path read is
				// coherent even mid-storm: Path slices are stable snapshots.
				p := m.walks.Path(sc.segs[c.off+c.used])
				c.used++
				for i := 1; i < len(p); i++ {
					q.stats.StripeMask |= 1 << uint(walkstore.StripeOf(p[i]))
					if walkstore.Side(dir).PendingAt(i) == walkstore.SideBackward {
						sc.auth.add(p[i])
						q.authTotal++
					} else {
						sc.hub.add(p[i])
						q.hubTotal++
					}
				}
				q.stats.StitchedSegments++
				q.stats.StitchedSteps += int64(len(p) - 1)
				q.stats.Steps += int64(len(p) - 1)
				break
			}
			// Bare step: one Social Store round trip, tallied by the query's
			// own session.
			if dir == walk.Forward {
				if rng.Float64() < eps {
					break
				}
				next, ok := sess.RandomOutNeighbor(cur, rng)
				q.stats.BareSteps++
				if !ok {
					break
				}
				cur = next
				sc.auth.add(cur)
				q.authTotal++
			} else {
				next, ok := sess.RandomInNeighbor(cur, rng)
				q.stats.BareSteps++
				if !ok {
					break
				}
				cur = next
				sc.hub.add(cur)
				q.hubTotal++
			}
			q.stats.Steps++
			dir = 1 - dir
		}
	}

	sess.CountFetch() // the query's result fetch against the store
	q.stats.StoreCalls = sess.Snapshot().Reads
	q.stats.Theorem8Bound = Theorem8Bound(nWalks, stored, eps)
	q.stats.EndEpoch = m.walks.Epoch()
	q.auth, q.hub = sc.drain()
	return q
}
