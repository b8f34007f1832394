package salsa

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
	"fastppr/internal/topk"
	"fastppr/internal/walkstore"
)

const oracleTol = 1e-11

func newMaintainer(g *graph.Graph, cfg Config) (*Maintainer, *socialstore.Store) {
	soc := socialstore.New(g)
	return New(soc, cfg), soc
}

// TestBootstrapMatchesOracle checks the statistical ground truth of the
// stored state itself: after Bootstrap on a power-law graph, the global
// authority and hub estimates must match the exact bipartite chain.
func TestBootstrapMatchesOracle(t *testing.T) {
	n, r := 200, 60
	if testing.Short() {
		n, r = 120, 30
	}
	const eps = 0.2
	rng := rand.New(rand.NewPCG(31, 0))
	g := gen.PreferentialAttachment(n, 5, rng)
	mt, _ := newMaintainer(g, Config{Eps: eps, R: r, Workers: 4, Seed: 32})
	steps := mt.Bootstrap()
	if steps == 0 {
		t.Fatal("bootstrap stored no steps")
	}
	if err := mt.Store().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, v := range g.Nodes() {
		if got := len(mt.Store().AppendOwnedSided(nil, v, 0)); got != r {
			t.Fatalf("node %d owns %d forward segments, want %d", v, got, r)
		}
		if got := len(mt.Store().AppendOwnedSided(nil, v, 1)); got != r {
			t.Fatalf("node %d owns %d backward segments, want %d", v, got, r)
		}
	}
	auth, hub := exact.Salsa(g, eps, oracleTol)
	if d := exact.L1(mt.AuthorityAll(), auth); d > 0.2 {
		t.Fatalf("authority L1 vs oracle=%v", d)
	}
	if d := exact.L1(mt.HubAll(), hub); d > 0.2 {
		t.Fatalf("hub L1 vs oracle=%v", d)
	}
}

// TestStreamConvergesToOracle is the incremental correctness test: bootstrap
// on half a power-law graph's edges, stream the other half through the
// bipartite reroute rule, and require the maintained estimates to match the
// exact chain on the final graph — and to agree with a maintainer
// bootstrapped directly on that final graph.
func TestStreamConvergesToOracle(t *testing.T) {
	n, r := 150, 50
	if testing.Short() {
		n, r = 90, 30
	}
	const eps = 0.2
	rng := rand.New(rand.NewPCG(41, 0))
	full := gen.PreferentialAttachment(n, 4, rng)
	stream := gen.RandomPermutationStream(full, rng)
	prefix, suffix := gen.SplitStream(stream, 0.5)

	g := gen.BuildFromStream(prefix)
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i)) // all nodes known up front
	}
	mt, soc := newMaintainer(g, Config{Eps: eps, R: r, Workers: 2, Seed: 42})
	mt.Bootstrap()
	mt.ApplyEdges(suffix)
	if err := mt.Store().Validate(); err != nil {
		t.Fatal(err)
	}

	auth, hub := exact.Salsa(soc.Graph(), eps, oracleTol)
	if d := exact.L1(mt.AuthorityAll(), auth); d > 0.2 {
		t.Fatalf("streamed authority L1 vs oracle=%v", d)
	}
	if d := exact.L1(mt.HubAll(), hub); d > 0.2 {
		t.Fatalf("streamed hub L1 vs oracle=%v", d)
	}

	// TopKAuthorities streams raw counts and divides the survivors; the
	// result must be bit-identical, scores and order, to ranking the full
	// vector.
	for _, k := range []int{10, 10 * n} {
		if got, want := mt.TopKAuthorities(k), topk.TopK(mt.AuthorityAll(), k); !slices.Equal(got, want) {
			t.Fatalf("TopKAuthorities(%d) differs from ranking AuthorityAll:\ngot  %v\nwant %v", k, got, want)
		}
	}

	// A maintainer bootstrapped on the final graph must land on the same
	// distribution: streaming may not bias the stored walks.
	fresh, _ := newMaintainer(soc.Graph().Clone(), Config{Eps: eps, R: r, Workers: 2, Seed: 43})
	fresh.Bootstrap()
	if d := exact.L1(mt.AuthorityAll(), fresh.AuthorityAll()); d > 0.25 {
		t.Fatalf("streamed vs fresh authority L1=%v", d)
	}

	c := mt.Counters()
	if c.Arrivals != int64(len(suffix)) {
		t.Fatalf("arrivals=%d want %d", c.Arrivals, len(suffix))
	}
	if c.Rerouted+c.Revived == 0 {
		t.Fatal("stream perturbed no stored walks")
	}
	if met := soc.Metrics(); met.Writes != int64(len(suffix)) {
		t.Fatalf("store writes=%d want %d", met.Writes, len(suffix))
	}
}

// TestFastPathInvariants pins the lossless-skip accounting on both update
// phases: with the fast path on, a slow path always performs work
// (SlowNoops == 0). The reference in flipAll mode, the naive law, runs the
// same stream from the same bootstrap: it never skips, and both land on the
// oracle.
func TestFastPathInvariants(t *testing.T) {
	n, m, r := 80, 1500, 30
	if testing.Short() {
		n, m, r = 60, 800, 20
	}
	const eps = 0.2
	rng := rand.New(rand.NewPCG(51, 0))
	stream := gen.DirichletStream(n, m, rng)

	fast, _ := newMaintainer(nodeGraph(n), Config{Eps: eps, R: r, Workers: 2, Seed: 52})
	fast.Bootstrap()
	slow := newReference(t, fast, nodeGraph(n), true)
	fast.ApplyEdges(stream)
	if err := fast.Store().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, ed := range stream {
		slow.arrive(ed.From, ed.To)
	}
	fc, sc := fast.Counters(), slow.cnt

	// Each arrival runs exactly two repair phases.
	if fc.FastSkips+fc.EmptySkips+fc.SlowPaths != 2*fc.Arrivals {
		t.Fatalf("phase counters do not partition arrivals: %+v", fc)
	}
	if fc.SlowNoops != 0 {
		t.Fatalf("fast path took %d slow paths that sampled no work", fc.SlowNoops)
	}
	if fc.Rerouted+fc.Revived < fc.SlowPaths {
		t.Fatalf("slow paths=%d but only %d reroutes+revivals", fc.SlowPaths, fc.Rerouted+fc.Revived)
	}
	if sc.FastSkips != 0 {
		t.Fatalf("naive law recorded %d skips", sc.FastSkips)
	}

	auth, _ := exact.Salsa(fast.Social().Graph(), eps, oracleTol)
	if d := exact.L1(fast.AuthorityAll(), auth); d > 0.25 {
		t.Fatalf("fast-path authority L1 vs oracle=%v", d)
	}
	if d := exact.L1(slow.authorities(), auth); d > 0.25 {
		t.Fatalf("naive-law authority L1 vs oracle=%v", d)
	}
}

// TestSkipCoinFiresOnHighDegreeSource grows a star whose hub's out-degree
// outpaces its stored candidate count — the regime the W(v) fast path is
// designed for (an alternating walk visits a hub on every other step, so
// candidates grow with R·walk-length while degree grows with every arrival;
// skips appear once (1-1/d)^k is non-negligible). On a dense stream with
// large R the coin is correctly almost never tails — that case is covered by
// TestFastPathInvariants' partition identity.
func TestSkipCoinFiresOnHighDegreeSource(t *testing.T) {
	const leaves = 400
	hub := graph.NodeID(0)
	mt, _ := newMaintainer(nodeGraph(leaves+1), Config{Eps: 0.5, R: 1, Workers: 1, Seed: 53})
	mt.Bootstrap()
	naive := newReference(t, mt, nodeGraph(leaves+1), true)
	for i := 1; i <= leaves; i++ {
		mt.ApplyEdge(graph.Edge{From: hub, To: graph.NodeID(i)})
		naive.arrive(hub, graph.NodeID(i))
	}
	if err := mt.Store().Validate(); err != nil {
		t.Fatal(err)
	}
	c := mt.Counters()
	if c.FastSkips == 0 {
		t.Fatalf("skip coin never fired on a %d-degree source: %+v", leaves, c)
	}
	if c.SlowNoops != 0 {
		t.Fatalf("lossless fast path recorded %d no-op slow paths", c.SlowNoops)
	}
	// The naive law flips every coin itself; in this regime plenty of
	// arrivals miss every candidate, which the skip coin would have
	// dismissed for one counter read.
	if naive.cnt.SlowNoops == 0 {
		t.Fatal("naive law never sampled an all-miss arrival in the skip regime")
	}
}

// TestBackwardRevival pins the backward half of the revival rule: a node
// with no in-edges accumulates backward-pending terminals, and its first
// in-edge must revive every one of them (the backward step has no reset
// coin, so revival is certain, and each revived walk must step to the sole
// in-neighbor).
func TestBackwardRevival(t *testing.T) {
	const n = 64
	const r = 8
	g := graph.New(0)
	x := graph.NodeID(1000)
	for i := 0; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n)) // cycle keeps walks alive
	}
	g.AddEdge(x, 0) // x: out-edge into the cycle, no in-edges
	mt, _ := newMaintainer(g, Config{Eps: 0.2, R: r, Workers: 1, Seed: 61})
	mt.Bootstrap()

	terminals := mt.Store().PendingTerminals(x, 1)
	if terminals < int64(r) {
		t.Fatalf("expected >= %d backward-pending terminals at x, got %d", r, terminals)
	}
	mt.ApplyEdge(graph.Edge{From: 0, To: x})
	if err := mt.Store().Validate(); err != nil {
		t.Fatal(err)
	}
	c := mt.Counters()
	if c.Revived < terminals {
		t.Fatalf("revived %d walks, want every one of %d backward terminals", c.Revived, terminals)
	}
	if left := mt.Store().PendingTerminals(x, 1); left != 0 {
		t.Fatalf("%d backward terminals left at x after its first in-edge", left)
	}
	// Each revived walk's backward step from x must go to its only
	// in-neighbor, node 0.
	for _, id := range mt.Store().Visitors(x) {
		p := mt.Store().Path(id)
		side := mt.Store().SideOf(id)
		for i := 0; i < len(p)-1; i++ {
			if p[i] == x && side.PendingAt(i) == 1 && p[i+1] != 0 {
				t.Fatalf("segment %d takes backward step x->%d, only in-neighbor is 0", id, p[i+1])
			}
		}
	}
}

// TestForwardRevival pins the forward half: walks that died at a dangling
// node continue through its first out-edge at rate ~(1-eps), the same law
// the PageRank maintainer enforces.
func TestForwardRevival(t *testing.T) {
	const spokes = 200
	const eps = 0.2
	g := graph.New(0)
	for i := 1; i <= spokes; i++ {
		g.AddEdge(graph.NodeID(i), 0) // node 0 is a forward-dangling sink
	}
	mt, _ := newMaintainer(g, Config{Eps: eps, R: 4, Workers: 1, Seed: 62})
	mt.Bootstrap()
	terminals := mt.Store().PendingTerminals(0, 0)
	if terminals == 0 {
		t.Fatal("no forward-pending terminals at the sink; setup broken")
	}
	mt.ApplyEdge(graph.Edge{From: 0, To: 1})
	if err := mt.Store().Validate(); err != nil {
		t.Fatal(err)
	}
	c := mt.Counters()
	want := (1 - eps) * float64(terminals)
	sigma := math.Sqrt(float64(terminals) * eps * (1 - eps))
	if math.Abs(float64(c.Revived)-want) > 5*sigma+1 {
		t.Fatalf("revived %d walks, want ~%.0f (+-%.0f)", c.Revived, want, 5*sigma)
	}
}

// TestSeedsNewNodesMidStream replays a power-law graph edge by edge into a
// maintainer that starts empty: every endpoint must end up owning R
// segments per side and the estimates must still track the oracle.
func TestSeedsNewNodesMidStream(t *testing.T) {
	n, r := 150, 40
	if testing.Short() {
		n, r = 90, 25
	}
	const eps = 0.2
	rng := rand.New(rand.NewPCG(71, 0))
	base := gen.PreferentialAttachment(n, 4, rng)
	stream := gen.RandomPermutationStream(base, rng)

	mt, soc := newMaintainer(graph.New(0), Config{Eps: eps, R: r, Workers: 1, Seed: 72})
	mt.Bootstrap() // no nodes yet
	mt.ApplyEdges(stream)
	if err := mt.Store().Validate(); err != nil {
		t.Fatal(err)
	}
	nodes := soc.Graph().Nodes()
	if len(nodes) != n {
		t.Fatalf("replayed graph has %d nodes, want %d", len(nodes), n)
	}
	for _, v := range nodes {
		if got := len(mt.Store().AppendOwnedSided(nil, v, 0)); got != r {
			t.Fatalf("node %d owns %d forward segments, want %d", v, got, r)
		}
		if got := len(mt.Store().AppendOwnedSided(nil, v, 1)); got != r {
			t.Fatalf("node %d owns %d backward segments, want %d", v, got, r)
		}
	}
	if c := mt.Counters(); c.Seeded != int64(2*n*r) {
		t.Fatalf("seeded %d segments, want %d", c.Seeded, 2*n*r)
	}
	auth, hub := exact.Salsa(soc.Graph(), eps, oracleTol)
	if d := exact.L1(mt.AuthorityAll(), auth); d > 0.2 {
		t.Fatalf("authority L1 vs oracle=%v", d)
	}
	if d := exact.L1(mt.HubAll(), hub); d > 0.2 {
		t.Fatalf("hub L1 vs oracle=%v", d)
	}
}

// TestEmptyMaintainer covers the before-any-data edge cases.
func TestEmptyMaintainer(t *testing.T) {
	mt, _ := newMaintainer(graph.New(0), Config{Eps: 0.5, R: 3, QueryWalks: 16})
	if got := mt.AuthorityEstimate(1); got != 0 {
		t.Fatalf("AuthorityEstimate on empty store=%v", got)
	}
	if got := mt.AuthorityAll(); len(got) != 0 {
		t.Fatalf("AuthorityAll on empty store=%v", got)
	}
	q := mt.Personalized(7)
	if got := q.Authority(7); got != 0 {
		t.Fatalf("personalized authority on empty graph=%v", got)
	}
	if st := q.Stats(); st.StoreCalls != st.BareSteps {
		t.Fatalf("call accounting drifted on empty graph: %+v", st)
	}
}

// TestScanCountsEveryCandidate pins what the retry loops of the two arrival
// phases (repair.Kernel.Arrive) rely on: a scan reports every candidate slot
// as seen, superseded ones included, so a retry redraws the first switch
// over the enumeration the skip coin's exponent counted. Only parallel runs
// ever retry, so TestMatchesReference cannot see this count. The self-loop
// makes walks revisit 0 on both sides.
func TestScanCountsEveryCandidate(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	mt, _ := newMaintainer(g, Config{Eps: 0.1, R: 40, Workers: 1, Seed: 9})
	mt.Bootstrap()
	kern, w := repair.Serial(mt.shell)
	for _, dir := range []walkstore.Side{walkstore.SideForward, walkstore.SideBackward} {
		k := mt.Store().PendingCandidates(0, dir)
		w.Reset()
		kern.Freeze(w, 0, dir)
		first := supersedingFirst(w)
		var seen int64
		if first >= 0 {
			_, seen = kern.FirstSuccessScan(w, 1, dir, false, 0.5, first)
		}
		kern.Release(w)
		if first < 0 {
			t.Fatalf("side %d setup: no segment holds two candidates", dir)
		}
		if seen != k {
			t.Fatalf("side %d: scan saw %d candidates, the skip coin counted %d", dir, seen, k)
		}
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
