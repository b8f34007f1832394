package salsa

import (
	"math/rand/v2"

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
// eps-reset walks from the source, plus the store-call accounting.
type Query struct {
	auth      map[graph.NodeID]int64
	hub       map[graph.NodeID]int64
	authTotal int64
	hubTotal  int64
	stats     QueryStats
}

// Stats returns the query's cost accounting.
func (q *Query) Stats() QueryStats { return q.stats }

// Authority returns the personalized authority score of v relative to the
// query source: the fraction of authority-side visits that landed on v.
func (q *Query) Authority(v graph.NodeID) float64 {
	if q.authTotal == 0 {
		return 0
	}
	return float64(q.auth[v]) / float64(q.authTotal)
}

// Hub returns the personalized hub score of v relative to the query source.
func (q *Query) Hub(v graph.NodeID) float64 {
	if q.hubTotal == 0 {
		return 0
	}
	return float64(q.hub[v]) / float64(q.hubTotal)
}

// AuthorityAll returns the full personalized authority distribution. Nodes
// never visited on the authority side are absent.
func (q *Query) AuthorityAll() map[graph.NodeID]float64 {
	out := make(map[graph.NodeID]float64, len(q.auth))
	if q.authTotal == 0 {
		return out
	}
	for v, x := range q.auth {
		out[v] = float64(x) / float64(q.authTotal)
	}
	return out
}

// TopK returns the k highest personalized authority scores, descending,
// ties toward lower IDs: the raw visit counts streamed through the collector,
// bit-identical to ranking AuthorityAll without building it.
func (q *Query) TopK(k int) []topk.Item {
	return topk.TopKShares(k, func(yield func(graph.NodeID, int64)) {
		for v, x := range q.auth {
			yield(v, x)
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
// node's stored segments usable when the pending step has that direction
// (read once per query, so the list is a per-node snapshot) and how many of
// them this query has consumed.
type cursor struct {
	seg  []walkstore.SegmentID
	used int
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
	q := m.personalized(source, rng)
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

func (m *Maintainer) personalized(source graph.NodeID, rng *rand.Rand) *Query {
	eps := m.cfg.Eps
	nWalks := m.cfg.queryWalks()
	q := &Query{
		auth: make(map[graph.NodeID]int64),
		hub:  make(map[graph.NodeID]int64),
	}
	q.stats.Source = source
	q.stats.Walks = nWalks
	q.stats.StartEpoch = m.walks.Epoch()
	q.stats.StripeMask = 1 << uint(walkstore.StripeOf(source))

	sess := m.soc.NewSession()
	stored := len(m.walks.OwnedSided(source, walkstore.SideForward))
	// at[dir] maps a node to its cursor's index in cursors: one int64-keyed
	// map access per walk step, none to advance a cursor. (One map per
	// direction rather than one keyed on node<<1|dir: IDs are full int64s.)
	at := [2]map[graph.NodeID]int32{{}, {}}
	var cursors []cursor

	for w := 0; w < nWalks; w++ {
		cur := source
		dir := walk.Forward
		q.hub[source]++
		q.hubTotal++
		for {
			// Every node whose state this iteration may read — its stored
			// segment list, or its adjacency through a bare step — lands in
			// the read footprint. Spliced path nodes are added below.
			q.stats.StripeMask |= 1 << uint(walkstore.StripeOf(cur))
			ci, ok := at[dir][cur]
			if !ok {
				ci = int32(len(cursors))
				at[dir][cur] = ci
				cursors = append(cursors, cursor{seg: m.walks.OwnedSided(cur, walkstore.Side(dir))})
			}
			if c := &cursors[ci]; c.used < len(c.seg) {
				// Splice: the stored segment is a full sample of the walk's
				// remainder (it ended in a reset or a dead end), so it
				// finishes this walk with zero store calls. The path read is
				// coherent even mid-storm: Path slices are stable snapshots.
				p := m.walks.Path(c.seg[c.used])
				c.used++
				for i := 1; i < len(p); i++ {
					q.stats.StripeMask |= 1 << uint(walkstore.StripeOf(p[i]))
					if walkstore.Side(dir).PendingAt(i) == walkstore.SideBackward {
						q.auth[p[i]]++
						q.authTotal++
					} else {
						q.hub[p[i]]++
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
				q.auth[cur]++
				q.authTotal++
			} else {
				next, ok := sess.RandomInNeighbor(cur, rng)
				q.stats.BareSteps++
				if !ok {
					break
				}
				cur = next
				q.hub[cur]++
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
	return q
}
