package pagerank

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"fastppr/internal/exact"
	"fastppr/internal/gen"
	"fastppr/internal/graph"
	"fastppr/internal/repair"
	"fastppr/internal/socialstore"
	"fastppr/internal/stats"
	"fastppr/internal/topk"
	"fastppr/internal/walkstore"
)

const oracleTol = 1e-11

// newMaintainer wires a fresh graph holding nodes 0..n-1 behind a social
// store and a maintainer, the setup every streaming test starts from.
func newMaintainer(n int, cfg Config) (*Maintainer, *socialstore.Store) {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i))
	}
	soc := socialstore.New(g)
	return New(soc, cfg), soc
}

// TestConvergesToOracleOnDirichletStream is the statistical ground-truth
// test: bootstrap on an edgeless node set, stream a Dirichlet edge arrival
// sequence through the incremental maintainer, and require the resulting
// estimates to match exact power iteration on the final graph within Monte
// Carlo tolerance.
func TestConvergesToOracleOnDirichletStream(t *testing.T) {
	n, m, r := 100, 3000, 100
	if testing.Short() {
		n, m, r = 60, 1200, 60
	}
	const eps = 0.2
	mt, soc := newMaintainer(n, Config{Eps: eps, R: r, Workers: 4, Seed: 101})
	mt.Bootstrap()

	rng := rand.New(rand.NewPCG(202, 0))
	stream := gen.DirichletStream(n, m, rng)
	mt.ApplyEdges(stream)

	if err := mt.Store().Validate(); err != nil {
		t.Fatal(err)
	}
	pi := exact.PageRank(soc.Graph(), eps, oracleTol)
	got := mt.ApproxAll()
	// Observed ~0.05 at these fixed seeds; 3x headroom.
	if d := exact.L1(got, pi); d > 0.15 {
		t.Fatalf("L1(maintainer, oracle)=%v exceeds tolerance", d)
	}

	// TopK precision@k against the oracle ranking, through the repo's own
	// precision-recall machinery.
	const k = 10
	relevant := make(map[graph.NodeID]bool, k)
	for _, v := range exact.Ranking(pi)[:k] {
		relevant[v] = true
	}
	var retrieved []graph.NodeID
	for _, it := range mt.TopK(k) {
		retrieved = append(retrieved, it.Node)
	}
	curve := stats.PrecisionRecallCurve(retrieved, relevant)
	if len(curve) != k {
		t.Fatalf("curve has %d points, want %d", len(curve), k)
	}
	if p := curve[k-1].Precision; p < 0.5 {
		t.Fatalf("precision@%d=%v below floor 0.5", k, p)
	}

	// The update path must have gone through the call-accounted store.
	met := soc.Metrics()
	if met.Writes != int64(m) {
		t.Fatalf("store writes=%d want %d (one per arrival)", met.Writes, m)
	}
	if met.Reads == 0 {
		t.Fatal("update path performed no store reads")
	}
	c := mt.Counters()
	if c.Arrivals != int64(m) {
		t.Fatalf("arrivals=%d want %d", c.Arrivals, m)
	}
	if c.Rerouted+c.Revived == 0 {
		t.Fatal("stream perturbed no stored walks")
	}
}

// TestFastPathEquivalence runs the same hub-heavy stream through the
// maintainer and through the reference in flipAll mode, the naive law with
// no skip coin, both from the same bootstrap. The two estimate vectors must
// agree statistically, the skip must actually fire (Dirichlet arrivals
// concentrate on high-out-degree sources, where (1-1/d)^K is large), and the
// fast path's conditional sampling must never pair a skip with sampled work:
// every non-skipped arrival reroutes at least one segment, so SlowNoops
// stays 0.
func TestFastPathEquivalence(t *testing.T) {
	n, m, r := 100, 3000, 40
	if testing.Short() {
		n, m, r = 60, 1200, 30
	}
	const eps = 0.2
	rng := rand.New(rand.NewPCG(77, 0))
	stream := gen.DirichletStream(n, m, rng)

	fast, _ := newMaintainer(n, Config{Eps: eps, R: r, Workers: 4, Seed: 303})
	fast.Bootstrap()
	slow := newReference(t, fast, buildGraph(n, nil), true)
	fast.ApplyEdges(stream)
	if err := fast.Store().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, ed := range stream {
		slow.arrive(ed.From, ed.To)
	}
	fc, sc := fast.Counters(), slow.cnt

	// Accounting identities: every arrival is exactly one of skip / empty /
	// slow path.
	if fc.FastSkips+fc.EmptySkips+fc.SlowPaths != fc.Arrivals {
		t.Fatalf("fast-path counters do not partition arrivals: %+v", fc)
	}
	if fc.FastSkips == 0 {
		t.Fatal("fast path never skipped on a hub-heavy stream")
	}
	if rate := fc.SkipRate(); rate < 0.02 {
		t.Fatalf("skip rate %v below floor on hub-heavy stream", rate)
	}
	// The skip coin IS the (at least one reroute) indicator, so a skip can
	// never coincide with sampled work and a slow path can never be empty.
	if fc.SlowNoops != 0 {
		t.Fatalf("fast path took %d slow paths that sampled no reroute", fc.SlowNoops)
	}
	if fc.Rerouted+fc.Revived < fc.SlowPaths {
		t.Fatalf("slow paths=%d but only %d reroutes+revivals", fc.SlowPaths, fc.Rerouted+fc.Revived)
	}
	// The naive law flips every coin itself: no skips, and plenty of
	// arrivals where nothing reroutes.
	if sc.FastSkips != 0 {
		t.Fatalf("naive law recorded %d skips", sc.FastSkips)
	}
	if sc.SlowNoops == 0 {
		t.Fatal("naive law never sampled an all-miss arrival; test graph degenerate")
	}

	// Both laws must land on the oracle, and on each other. Observed
	// ~0.07 at these fixed seeds; 3x headroom.
	pi := exact.PageRank(fast.Social().Graph(), eps, oracleTol)
	if d := exact.L1(fast.ApproxAll(), pi); d > 0.2 {
		t.Fatalf("fast-path L1 vs oracle=%v", d)
	}
	if d := exact.L1(slow.estimates(), pi); d > 0.2 {
		t.Fatalf("naive-law L1 vs oracle=%v", d)
	}
	if d := exact.L1(fast.ApproxAll(), slow.estimates()); d > 0.25 {
		t.Fatalf("fast vs naive L1=%v — fast path shifted the distribution", d)
	}
}

// TestSeedsNewNodesMidStream replays a preferential-attachment graph edge by
// edge into a maintainer that starts completely empty: every endpoint is
// first seen mid-stream, must get its R owned segments, and the final
// estimates must still track the oracle, including top-k ranking on the
// power-law in-degree skew.
func TestSeedsNewNodesMidStream(t *testing.T) {
	n, r := 250, 60
	if testing.Short() {
		n, r = 120, 40
	}
	const eps = 0.2
	rng := rand.New(rand.NewPCG(55, 0))
	base := gen.PreferentialAttachment(n, 5, rng)
	stream := gen.RandomPermutationStream(base, rng)

	g := graph.New(0)
	soc := socialstore.New(g)
	mt := New(soc, Config{Eps: eps, R: r, Workers: 2, Seed: 404})
	mt.Bootstrap() // no nodes yet: a no-op that marks nothing known
	mt.ApplyEdges(stream)

	if err := mt.Store().Validate(); err != nil {
		t.Fatal(err)
	}
	nodes := g.Nodes()
	if len(nodes) != n {
		t.Fatalf("replayed graph has %d nodes, want %d", len(nodes), n)
	}
	for _, v := range nodes {
		if got := len(mt.Store().OwnedBy(v)); got != r {
			t.Fatalf("node %d owns %d segments, want %d", v, got, r)
		}
	}
	c := mt.Counters()
	if c.Seeded != int64(n*r) {
		t.Fatalf("seeded %d segments, want %d", c.Seeded, n*r)
	}

	pi := exact.PageRank(g, eps, oracleTol)
	if d := exact.L1(mt.ApproxAll(), pi); d > 0.15 {
		t.Fatalf("L1 vs oracle=%v", d)
	}
	const k = 10
	relevant := make(map[graph.NodeID]bool, k)
	for _, v := range exact.Ranking(pi)[:k] {
		relevant[v] = true
	}
	var retrieved []graph.NodeID
	for _, it := range mt.TopK(k) {
		retrieved = append(retrieved, it.Node)
	}
	curve := stats.PrecisionRecallCurve(retrieved, relevant)
	if p := curve[len(curve)-1].Precision; p < 0.6 {
		t.Fatalf("precision@%d=%v below floor on power-law skew", k, p)
	}
}

// TestDanglingRevivalThroughMaintainer pins the d==1 arrival rule end to
// end: walks stored before a dangling node's first out-edge must continue
// through it at rate ~(1-eps).
func TestDanglingRevivalThroughMaintainer(t *testing.T) {
	const spokes = 300
	const eps = 0.2
	g := graph.New(0)
	for i := 1; i <= spokes; i++ {
		g.AddEdge(graph.NodeID(i), 0) // node 0 is a dangling sink
	}
	soc := socialstore.New(g)
	mt := New(soc, Config{Eps: eps, R: 4, Workers: 2, Seed: 606})
	mt.Bootstrap()
	terminal := mt.Store().Terminals(0)
	if terminal == 0 {
		t.Fatal("no walks terminate at the sink; setup broken")
	}

	mt.ApplyEdge(graph.Edge{From: 0, To: 1})
	if err := mt.Store().Validate(); err != nil {
		t.Fatal(err)
	}
	c := mt.Counters()
	want := (1 - eps) * float64(terminal)
	sigma := math.Sqrt(float64(terminal) * eps * (1 - eps))
	if math.Abs(float64(c.Revived)-want) > 5*sigma+1 {
		t.Fatalf("revived %d walks, want ~%.0f (+-%.0f)", c.Revived, want, 5*sigma)
	}
	// Revived walks must leave the sink through the only edge it has.
	for _, id := range mt.Store().Visitors(0) {
		p := mt.Store().Path(id)
		for i, v := range p[:len(p)-1] {
			if v == 0 && p[i+1] != 1 {
				t.Fatalf("segment %d leaves the sink via non-edge 0->%d", id, p[i+1])
			}
		}
	}
}

// TestEstimateAccessors checks the read-side API against each other and the
// fetch accounting.
func TestEstimateAccessors(t *testing.T) {
	const n = 50
	mt, soc := newMaintainer(n, Config{Eps: 0.2, R: 20, Seed: 707})
	mt.Bootstrap()
	rng := rand.New(rand.NewPCG(808, 0))
	mt.ApplyEdges(gen.DirichletStream(n, 400, rng))

	all := mt.ApproxAll()
	var sum float64
	for v, x := range all {
		sum += x
		if got := mt.Estimate(v); math.Abs(got-x) > 1e-12 {
			t.Fatalf("Estimate(%d)=%v disagrees with ApproxAll %v", v, got, x)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("estimates sum to %v, want 1", sum)
	}
	if got := mt.Estimate(graph.NodeID(10 * n)); got != 0 {
		t.Fatalf("Estimate of unknown node=%v want 0", got)
	}

	items := mt.TopK(5)
	if len(items) != 5 {
		t.Fatalf("TopK returned %d items", len(items))
	}
	for i := 1; i < len(items); i++ {
		if items[i].Score > items[i-1].Score {
			t.Fatalf("TopK not descending: %v", items)
		}
	}
	ranked := exact.Ranking(all)
	for i, it := range items {
		if ranked[i] != it.Node {
			t.Fatalf("TopK rank %d=%d, full ranking says %d", i, it.Node, ranked[i])
		}
	}

	// TopK streams raw counts and divides the survivors; the result must be
	// bit-identical, scores and order, to ranking the full vector.
	for _, k := range []int{7, 10 * n} {
		if got, want := mt.TopK(k), topk.TopK(all, k); !slices.Equal(got, want) {
			t.Fatalf("TopK(%d) differs from ranking ApproxAll:\ngot  %v\nwant %v", k, got, want)
		}
	}

	fetchesBefore := soc.Metrics().Fetches
	estBefore := mt.Counters().Estimates
	mt.Estimate(1)
	mt.ApproxAll()
	mt.TopK(3)
	if got := soc.Metrics().Fetches - fetchesBefore; got != 3 {
		t.Fatalf("3 estimate calls recorded %d fetches", got)
	}
	if got := mt.Counters().Estimates - estBefore; got != 3 {
		t.Fatalf("3 estimate calls recorded %d in counters", got)
	}
}

// TestConcurrentEstimatesDuringUpdates serves reads while a stream is being
// consumed (run under -race). Every estimate must be a valid probability:
// numerator and denominator are read under one store lock, so a reader can
// never observe a torn ratio even while seeding lands large visit batches.
func TestConcurrentEstimatesDuringUpdates(t *testing.T) {
	const n = 60
	rng := rand.New(rand.NewPCG(111, 0))
	stream := gen.DirichletStream(n, 800, rng)
	mt, _ := newMaintainer(0, Config{Eps: 0.2, R: 30, Seed: 112})

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, ed := range stream {
			mt.ApplyEdge(ed)
		}
	}()
	reads := rand.New(rand.NewPCG(113, 0))
	for i := 0; i < 4000; i++ {
		if e := mt.Estimate(graph.NodeID(reads.IntN(n))); e < 0 || e > 1 {
			t.Errorf("Estimate returned %v outside [0,1]", e)
			break
		}
		if i%500 == 0 {
			mt.ApproxAll()
			mt.TopK(5)
		}
	}
	<-done
	if err := mt.Store().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyMaintainer covers the before-any-data edge cases.
func TestEmptyMaintainer(t *testing.T) {
	mt, _ := newMaintainer(0, Config{Eps: 0.5, R: 3})
	if got := mt.Estimate(1); got != 0 {
		t.Fatalf("Estimate on empty store=%v", got)
	}
	if got := mt.ApproxAll(); len(got) != 0 {
		t.Fatalf("ApproxAll on empty store=%v", got)
	}
	if got := mt.TopK(4); len(got) != 0 {
		t.Fatalf("TopK on empty store=%v", got)
	}
}

// TestTruncatedGeometricLaw checks the conditional first-success sampler the
// fast path relies on against its closed-form distribution.
func TestTruncatedGeometricLaw(t *testing.T) {
	rng := rand.New(rand.NewPCG(909, 0))
	const p = 0.3
	const k = int64(5)
	trials := 200_000
	if testing.Short() {
		trials = 40_000
	}
	counts := make([]int, k)
	for i := 0; i < trials; i++ {
		counts[stats.TruncatedGeometric(rng, p, k)]++
	}
	norm := 1 - math.Pow(1-p, float64(k))
	for j := int64(0); j < k; j++ {
		want := math.Pow(1-p, float64(j)) * p / norm
		got := float64(counts[j]) / float64(trials)
		sigma := math.Sqrt(want * (1 - want) / float64(trials))
		if math.Abs(got-want) > 5*sigma {
			t.Fatalf("P(J=%d)=%v want %v (+-%v)", j, got, want, 5*sigma)
		}
	}
}

// TestScanCountsEveryCandidate pins what the retry loop in the maintainer's
// arrival phase (repair.Kernel.Arrive) relies on: a scan reports every
// candidate slot as seen, superseded ones included, so a retry redraws the
// first switch over the enumeration the skip coin's exponent counted. Only
// parallel runs ever retry, so TestMatchesReference cannot see this count.
// The self-loop makes walks revisit 0.
func TestScanCountsEveryCandidate(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	mt := New(socialstore.New(g), Config{Eps: 0.1, R: 40, Workers: 1, Seed: 9})
	mt.Bootstrap()
	k := mt.Store().Candidates(0)
	kern, w := repair.Serial(mt.shell)
	kern.Freeze(w, 0, walkstore.Unsided)
	first := supersedingFirst(w)
	var seen int64
	if first >= 0 {
		_, seen = kern.FirstSuccessScan(w, 1, walkstore.Unsided, false, 0.5, first)
	}
	kern.Release(w)
	if first < 0 {
		t.Fatal("setup: no segment holds two candidates")
	}
	if seen != k {
		t.Fatalf("scan saw %d candidates, the skip coin counted %d", seen, k)
	}
}

// supersedingFirst returns the enumeration index of the first candidate hit
// (a non-terminal one) of w's frozen phase whose segment holds another
// candidate, or -1: drawn as the first switch, it supersedes that other
// candidate.
func supersedingFirst(w *repair.Worker) int64 {
	idx, first := int64(0), int64(-1)
	w.Each(func(_ walkstore.SegmentID, path []graph.NodeID, hits []walkstore.PosHit) {
		var cands int64
		for _, h := range hits {
			if int(h.Pos) < len(path)-1 {
				cands++
			}
		}
		if cands >= 2 && first < 0 {
			first = idx
		}
		idx += cands
	})
	return first
}
