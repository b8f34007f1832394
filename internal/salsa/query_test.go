package salsa

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"fastppr/internal/exact"
	"fastppr/internal/gen"
	"fastppr/internal/graph"
	"fastppr/internal/stats"
	"fastppr/internal/topk"
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
