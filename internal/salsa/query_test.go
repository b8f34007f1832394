package salsa

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"fastppr/internal/exact"
	"fastppr/internal/gen"
	"fastppr/internal/graph"
	"fastppr/internal/stats"
	"fastppr/internal/topk"
	"fastppr/internal/walk"
	"fastppr/internal/walkstore"
)

// TestPersonalizedSingleEdge is the hand-computable case: on the graph
// {1 -> 2}, every authority-side visit of a walk from 1 lands on 2 and every
// hub-side visit on 1, regardless of eps.
func TestPersonalizedSingleEdge(t *testing.T) {
	g := graph.New(0)
	g.AddEdge(1, 2)
	mt, _ := newMaintainer(g, Config{Eps: 0.5, R: 2, Workers: 1, Seed: 81, QueryWalks: 200})
	mt.Bootstrap()

	if got := mt.Authority(1, 2); got != 1 {
		t.Fatalf("Authority(1,2)=%v want 1", got)
	}
	q := mt.Personalized(1)
	if got := q.Hub(1); got != 1 {
		t.Fatalf("Hub(1)=%v want 1", got)
	}
	if got := q.Authority(1); got != 0 {
		t.Fatalf("Authority(1)=%v want 0 (source is hub-side only here)", got)
	}
	items := q.TopK(3)
	if len(items) != 1 || items[0].Node != 2 || items[0].Score != 1 {
		t.Fatalf("TopK=%v want [{2 1}]", items)
	}
	// Exact oracle agreement on the same graph.
	auth, hub := exact.SalsaPersonalized(g, 1, 0.5, oracleTol)
	if auth[2] != 1 || hub[1] != 1 {
		t.Fatalf("oracle disagrees: auth=%v hub=%v", auth, hub)
	}
}

// TestQueryCallsWithinTheorem8Bound is the acceptance-criterion test: the
// measured Social Store calls of personalized queries must stay within the
// Theorem 8 accounting ceiling, and the measured count must equal the
// query's own bare-step tally (every bare step is exactly one round trip).
func TestQueryCallsWithinTheorem8Bound(t *testing.T) {
	n, q := 400, 2000
	if testing.Short() {
		n, q = 200, 600
	}
	const r = 8
	const eps = 0.2
	rng := rand.New(rand.NewPCG(91, 0))
	g := gen.PreferentialAttachment(n, 6, rng)
	mt, _ := newMaintainer(g, Config{Eps: eps, R: r, Workers: 1, Seed: 92, QueryWalks: q})
	mt.Bootstrap()

	for _, src := range []graph.NodeID{0, 1, graph.NodeID(n / 2), graph.NodeID(n - 1)} {
		res := mt.Personalized(src)
		st := res.Stats()
		if st.Walks != q {
			t.Fatalf("source %d ran %d walks, want %d", src, st.Walks, q)
		}
		if st.StoreCalls != st.BareSteps {
			t.Fatalf("source %d: measured calls %d != bare steps %d — accounting drifted",
				src, st.StoreCalls, st.BareSteps)
		}
		if want := Theorem8Bound(q, r, eps); st.Theorem8Bound != want {
			t.Fatalf("source %d: bound=%v want %v", src, st.Theorem8Bound, want)
		}
		if float64(st.StoreCalls) > st.Theorem8Bound {
			t.Fatalf("source %d: %d store calls exceed Theorem 8 ceiling %.0f",
				src, st.StoreCalls, st.Theorem8Bound)
		}
		if st.StitchedSegments == 0 {
			t.Fatalf("source %d: no segments stitched — query layer not using the store", src)
		}
		if st.Steps != st.StitchedSteps+st.BareSteps-failedProbes(st) {
			// Steps = stitched + successful bare steps; failed probes (dead
			// ends) cost a call but add no step.
			t.Fatalf("source %d: step accounting inconsistent: %+v", src, st)
		}
	}

	// A query that needs no more walks than the source's stored segments
	// makes zero round trips, and the bound collapses to zero with it.
	small, _ := newMaintainer(g.Clone(), Config{Eps: eps, R: r, Workers: 1, Seed: 93, QueryWalks: r})
	small.Bootstrap()
	st := small.Personalized(0).Stats()
	if st.StoreCalls != 0 || st.Theorem8Bound != 0 {
		t.Fatalf("R-walk query should be free: calls=%d bound=%v", st.StoreCalls, st.Theorem8Bound)
	}
	if c := small.Counters(); c.Queries != 1 {
		t.Fatalf("query counter=%d want 1", c.Queries)
	}
}

// failedProbes recovers the dead-end probes from the stats identity:
// BareSteps = successful bare steps + failed probes, Steps = StitchedSteps +
// successful bare steps.
func failedProbes(st QueryStats) int64 {
	return st.BareSteps - (st.Steps - st.StitchedSteps)
}

// TestPersonalizedMatchesOracle checks the personalized estimates against
// the exact source-seeded bipartite chain, including top-k precision on the
// power-law skew.
func TestPersonalizedMatchesOracle(t *testing.T) {
	n, q := 120, 40000
	if testing.Short() {
		n, q = 80, 8000
	}
	const eps = 0.2
	rng := rand.New(rand.NewPCG(95, 0))
	g := gen.PreferentialAttachment(n, 4, rng)
	mt, _ := newMaintainer(g, Config{Eps: eps, R: 10, Workers: 1, Seed: 96, QueryWalks: q})
	mt.Bootstrap()

	src := graph.NodeID(n - 1) // a late node: full out-degree, light in-degree
	res := mt.Personalized(src)
	auth, hub := exact.SalsaPersonalized(g, src, eps, oracleTol)
	if d := exact.L1(res.AuthorityAll(), auth); d > 0.15 {
		t.Fatalf("personalized authority L1 vs oracle=%v", d)
	}
	var hubAll = make(map[graph.NodeID]float64)
	for v := range hub {
		if s := res.Hub(v); s != 0 {
			hubAll[v] = s
		}
	}
	if d := exact.L1(hubAll, hub); d > 0.15 {
		t.Fatalf("personalized hub L1 vs oracle=%v", d)
	}

	const k = 10
	relevant := make(map[graph.NodeID]bool, k)
	for _, v := range exact.Ranking(auth)[:k] {
		relevant[v] = true
	}
	var retrieved []graph.NodeID
	for _, it := range mt.PersonalizedTopK(src, k) {
		retrieved = append(retrieved, it.Node)
	}
	curve := stats.PrecisionRecallCurve(retrieved, relevant)
	if p := curve[len(curve)-1].Precision; p < 0.5 {
		t.Fatalf("personalized precision@%d=%v below floor", k, p)
	}

	// The estimates are probabilities.
	var sum float64
	for _, s := range res.AuthorityAll() {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("authority scores sum to %v", sum)
	}
}

// TestQueryAfterStream runs personalized queries against a store that has
// been maintained through an edge storm: stitching must still be exact (the
// repaired segments are distributed as fresh ones) and the call ceiling must
// still hold.
func TestQueryAfterStream(t *testing.T) {
	n, m, q := 100, 1500, 12000
	if testing.Short() {
		n, m, q = 70, 700, 4000
	}
	const eps = 0.2
	const r = 8
	rng := rand.New(rand.NewPCG(97, 0))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i))
	}
	mt, _ := newMaintainer(g, Config{Eps: eps, R: r, Workers: 1, Seed: 98, QueryWalks: q})
	mt.Bootstrap()
	mt.ApplyEdges(gen.DirichletStream(n, m, rng))
	if err := mt.Store().Validate(); err != nil {
		t.Fatal(err)
	}

	src := graph.NodeID(3)
	res := mt.Personalized(src)
	st := res.Stats()
	if float64(st.StoreCalls) > st.Theorem8Bound {
		t.Fatalf("%d calls exceed ceiling %.0f after stream", st.StoreCalls, st.Theorem8Bound)
	}
	auth, _ := exact.SalsaPersonalized(mt.Social().Graph(), src, eps, oracleTol)
	if d := exact.L1(res.AuthorityAll(), auth); d > 0.2 {
		t.Fatalf("post-stream personalized authority L1 vs oracle=%v", d)
	}
}

// queryContract is the FNV-64 of six fixed-stream queries' full output —
// every QueryStats field, the authority and hub vectors in node order and
// TopK(10) — on a fixed-seed churned store, computed at commit e8671a5,
// before the query's two cursor maps became one and TopK stopped building
// the score map. The RNG draw order, the stripe mask and the scores are the
// served contract: a cached result is compared bit for bit against a
// recompute on its recorded stream.
const queryContract = 0xa67c0b342df1a90d

// TestPersonalizedStreamBitwise pins PersonalizedStream's output on fixed
// streams, and that TopK's streamed ranking equals ranking the materialised
// authority map.
func TestPersonalizedStreamBitwise(t *testing.T) {
	const n = 150
	rng := rand.New(rand.NewPCG(61, 0))
	full := gen.PreferentialAttachment(n, 4, rng)
	events := gen.ShrinkGrowStream(gen.RandomPermutationStream(full, rng), 3, 0.25, rng)
	mt, _ := newMaintainer(nodeGraph(n), Config{Eps: 0.2, R: 4, Workers: 1, Seed: 62, QueryWalks: 300})
	mt.Bootstrap()
	mt.ApplyEvents(events)

	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for i, src := range []graph.NodeID{0, 1, 7, n / 2, n - 1, 7} {
		q := mt.PersonalizedStream(src, uint64(1000+i))
		st := q.Stats()
		for _, x := range []int64{int64(st.Source), int64(st.Walks), st.Steps, st.StitchedSegments,
			st.StitchedSteps, st.BareSteps, st.StoreCalls, st.StartEpoch, st.EndEpoch} {
			put(uint64(x))
		}
		put(math.Float64bits(st.Theorem8Bound))
		put(st.Stream)
		put(st.StripeMask)
		for v := graph.NodeID(0); v < n; v++ {
			put(math.Float64bits(q.Authority(v)))
			put(math.Float64bits(q.Hub(v)))
		}
		for _, k := range []int{1, 10, n} {
			got, want := q.TopK(k), topk.TopK(q.AuthorityAll(), k)
			if !slices.Equal(got, want) {
				t.Fatalf("source %d: TopK(%d)=%v, ranking AuthorityAll gives %v", src, k, got, want)
			}
		}
		for _, it := range q.TopK(10) {
			put(uint64(it.Node))
			put(math.Float64bits(it.Score))
		}
	}
	if got := h.Sum64(); got != queryContract {
		t.Fatalf("query fingerprint %#x, want %#x", got, uint64(queryContract))
	}
}

// refQuery is a query's outcome as the map-based reference tallies it.
type refQuery struct {
	auth, hub           map[graph.NodeID]int64
	authTotal, hubTotal int64
	stats               QueryStats
}

// refCursor is the reference's stitching state at one (node, direction):
// its own copy of the node's owner list.
type refCursor struct {
	seg  []walkstore.SegmentID
	used int
}

// refPersonalized is the query loop as it ran before tallying into pooled
// scratch: four maps built from empty per query and an owner-list copy per
// cursor. It is the reference PersonalizedStream's counts, totals and
// QueryStats are held to bitwise.
func refPersonalized(m *Maintainer, source graph.NodeID, stream uint64) *refQuery {
	rng := rand.New(rand.NewPCG(m.cfg.Seed, stream))
	eps := m.cfg.Eps
	nWalks := m.cfg.queryWalks()
	q := &refQuery{
		auth: make(map[graph.NodeID]int64),
		hub:  make(map[graph.NodeID]int64),
	}
	q.stats.Source = source
	q.stats.Walks = nWalks
	q.stats.StartEpoch = m.walks.Epoch()
	q.stats.StripeMask = 1 << uint(walkstore.StripeOf(source))

	sess := m.soc.NewSession()
	stored := len(m.walks.AppendOwnedSided(nil, source, walkstore.SideForward))
	at := [2]map[graph.NodeID]int32{{}, {}}
	var cursors []refCursor

	for w := 0; w < nWalks; w++ {
		cur := source
		dir := walk.Forward
		q.hub[source]++
		q.hubTotal++
		for {
			q.stats.StripeMask |= 1 << uint(walkstore.StripeOf(cur))
			ci, ok := at[dir][cur]
			if !ok {
				ci = int32(len(cursors))
				at[dir][cur] = ci
				cursors = append(cursors, refCursor{seg: m.walks.AppendOwnedSided(nil, cur, walkstore.Side(dir))})
			}
			if c := &cursors[ci]; c.used < len(c.seg) {
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

	sess.CountFetch()
	q.stats.StoreCalls = sess.Snapshot().Reads
	q.stats.Theorem8Bound = Theorem8Bound(nWalks, stored, eps)
	q.stats.EndEpoch = m.walks.Epoch()
	q.stats.Stream = stream
	return q
}

// diffRef describes how q differs from the reference's outcome, "" if it
// does not: every QueryStats field, both totals and every per-node count,
// with each node listed once.
func diffRef(q *Query, want *refQuery) string {
	if q.stats != want.stats {
		return fmt.Sprintf("stats %+v, reference %+v", q.stats, want.stats)
	}
	if q.authTotal != want.authTotal || q.hubTotal != want.hubTotal {
		return fmt.Sprintf("totals auth %d hub %d, reference %d %d",
			q.authTotal, q.hubTotal, want.authTotal, want.hubTotal)
	}
	for _, side := range []struct {
		name string
		got  []nodeCount
		want map[graph.NodeID]int64
	}{{"authority", q.auth, want.auth}, {"hub", q.hub, want.hub}} {
		if len(side.got) != len(side.want) {
			return fmt.Sprintf("%s: %d nodes, reference %d", side.name, len(side.got), len(side.want))
		}
		seen := make(map[graph.NodeID]bool, len(side.got))
		for _, c := range side.got {
			if seen[c.v] || c.n != side.want[c.v] {
				return fmt.Sprintf("%s: node %d count %d (listed twice: %v), reference %d",
					side.name, c.v, c.n, seen[c.v], side.want[c.v])
			}
			seen[c.v] = true
		}
	}
	return ""
}

// wildID maps a dense test ID onto the three kinds of ID the query scratch
// stores differently: negative, at or above queryDenseLimit (1 lands exactly
// on it; the rest far above every dense limit in the tree), and unchanged
// dense.
func wildID(v graph.NodeID) graph.NodeID {
	switch {
	case v == 1:
		return queryDenseLimit
	case v%3 == 0:
		return -1 - 7*v
	case v%3 == 1:
		return 1<<40 + v
	}
	return v
}

// churned bootstraps a maintainer on n nodes with IDs relabeled by id and
// runs a fixed-seed power-law shrink-grow stream through it: the same graph
// and stream whatever id is.
func churned(t testing.TB, n int, id func(graph.NodeID) graph.NodeID) *Maintainer {
	rng := rand.New(rand.NewPCG(71, 0))
	full := gen.PreferentialAttachment(n, 4, rng)
	events := gen.ShrinkGrowStream(gen.RandomPermutationStream(full, rng), 3, 0.25, rng)
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddNode(id(graph.NodeID(v)))
	}
	mt, _ := newMaintainer(g, Config{Eps: 0.2, R: 4, Workers: 1, Seed: 72, QueryWalks: 300})
	mt.Bootstrap()
	for i, e := range events {
		events[i].Edge = graph.Edge{From: id(e.Edge.From), To: id(e.Edge.To)}
	}
	mt.ApplyEvents(events)
	if err := mt.Store().Validate(); err != nil {
		t.Fatal(err)
	}
	return mt
}

func denseID(v graph.NodeID) graph.NodeID { return v }

// drained reports whether sc is as a query leaves it: every dense slot
// zero, no wild ID remembered and every list empty.
func drained(sc *scratch) bool {
	for _, t := range []*tally{&sc.auth, &sc.hub} {
		if slices.ContainsFunc(t.n.dense, func(x int64) bool { return x != 0 }) ||
			len(t.n.sparse)+len(t.n.wild)+len(t.touched) != 0 {
			return false
		}
	}
	for dir, s := range sc.at {
		if slices.ContainsFunc(s.dense, func(x int32) bool { return x != 0 }) ||
			len(s.sparse)+len(s.wild)+len(sc.cursors[dir]) != 0 {
			return false
		}
	}
	return len(sc.segs) == 0
}

// TestPersonalizedMatchesMapReference holds the pooled-scratch tally to the
// map-based reference bitwise: on dense IDs, on negative and out-of-range
// IDs (the only graph in the tree that reaches the scratch's sparse slots),
// alternating the two on one reused scratch so a slot the reset missed
// shows up in the next query, and from four goroutines at once.
func TestPersonalizedMatchesMapReference(t *testing.T) {
	const n = 200
	dense, wild := churned(t, n, denseID), churned(t, n, wildID)
	sources := []graph.NodeID{0, 1, 2, 3, 7, n / 2, n - 1}

	type job struct {
		m    *Maintainer
		src  graph.NodeID
		want *refQuery
	}
	var jobs []job
	for i, v := range sources {
		stream := uint64(500 + i)
		for _, j := range []job{{m: dense, src: v}, {m: wild, src: wildID(v)}} {
			j.want = refPersonalized(j.m, j.src, stream)
			jobs = append(jobs, j)
		}
	}
	run := func(j job, sc *scratch) string {
		stream := j.want.stats.Stream
		q := j.m.personalized(j.src, rand.New(rand.NewPCG(j.m.cfg.Seed, stream)), sc)
		q.stats.Stream = stream
		return diffRef(q, j.want)
	}

	t.Run("pooled", func(t *testing.T) {
		for _, j := range jobs {
			if d := diffRef(j.m.PersonalizedStream(j.src, j.want.stats.Stream), j.want); d != "" {
				t.Fatalf("source %d: %s", j.src, d)
			}
		}
	})
	t.Run("one_scratch_alternating", func(t *testing.T) {
		sc := new(scratch)
		for pass := 0; pass < 2; pass++ {
			for _, j := range jobs {
				if d := run(j, sc); d != "" {
					t.Fatalf("pass %d, source %d: %s", pass, j.src, d)
				}
				if !drained(sc) {
					t.Fatalf("pass %d, source %d: the scratch kept a slot, a wild ID or a list entry", pass, j.src)
				}
			}
		}
		for _, s := range []slots[int64]{sc.auth.n, sc.hub.n} {
			if s.sparse == nil || len(s.dense) == 0 {
				t.Fatal("the queries left a count table's dense or sparse slots unused")
			}
		}
		for _, s := range sc.at {
			if s.sparse == nil || len(s.dense) == 0 {
				t.Fatal("the queries left a cursor table's dense or sparse slots unused")
			}
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range jobs {
					j := jobs[(i+3*g)%len(jobs)]
					if d := diffRef(j.m.PersonalizedStream(j.src, j.want.stats.Stream), j.want); d != "" {
						t.Errorf("goroutine %d, source %d: %s", g, j.src, d)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// TestPersonalizedAllocs gates a warmed query's allocations, TopK(100)
// included, at the 6 measured once the tallies moved into pooled scratch and
// the top-k collector stopped boxing items. Tallying into maps built per
// query, copying an owner list per cursor and boxing every top-k item made
// 183 here, and 795 per query on the benchmark's 30,000-node graph.
func TestPersonalizedAllocs(t *testing.T) {
	m := churned(t, 200, denseID)
	sc := new(scratch)
	query := func() {
		m.personalized(7, rand.New(rand.NewPCG(m.cfg.Seed, 9)), sc).TopK(100)
	}
	query()
	if got := testing.AllocsPerRun(20, query); got > 6 {
		t.Fatalf("a warmed query with TopK(100) made %v allocations, want at most 6", got)
	}
}
