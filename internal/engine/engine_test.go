package engine

import (
	"math"
	"math/rand/v2"
	"testing"

	"fastppr/internal/gen"
	"fastppr/internal/graph"
	"fastppr/internal/walkstore"
)

func buildTestGraph(n, d int, seed uint64) *graph.Graph {
	rng := rand.New(rand.NewPCG(seed, 0))
	return gen.PreferentialAttachment(n, d, rng)
}

func TestBuildStoreCounts(t *testing.T) {
	g := buildTestGraph(500, 4, 1)
	nodes := g.Nodes()
	const r = 3
	store := walkstore.New()
	eng := New(g, store, Config{Eps: 0.25, R: r, Workers: 4, Batch: 32, Seed: 7})
	steps := eng.BuildStore(nodes)
	if got, want := store.NumSegments(), len(nodes)*r; got != want {
		t.Fatalf("NumSegments=%d want %d", got, want)
	}
	if steps != store.TotalVisits() {
		t.Fatalf("reported steps=%d, store holds %d visits", steps, store.TotalVisits())
	}
	for _, v := range nodes {
		if got := len(store.OwnedBy(v)); got != r {
			t.Fatalf("node %d owns %d segments, want %d", v, got, r)
		}
		for _, id := range store.OwnedBy(v) {
			if p := store.Path(id); p[0] != v {
				t.Fatalf("segment %d owned by %d starts at %d", id, v, p[0])
			}
		}
	}
	if err := store.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildStoreSegmentLengths checks the parallel engine draws the same
// geometric length law as the sequential walker.
func TestBuildStoreSegmentLengths(t *testing.T) {
	// A cycle gives every node out-degree 1, so lengths are purely the
	// reset coin.
	g := graph.New(0)
	const n = 200
	for i := 0; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	const eps = 0.2
	const r = 50
	store := walkstore.New()
	eng := New(g, store, Config{Eps: eps, R: r, Workers: 3, Seed: 3})
	steps := eng.BuildStore(g.Nodes())
	mean := float64(steps) / float64(n*r)
	if math.Abs(mean-1/eps) > 0.15 {
		t.Fatalf("mean segment length %.3f, want %.3f +- 0.15", mean, 1/eps)
	}
}

// TestBuildStoreDeterministicAcrossWorkerCounts pins the per-chunk RNG
// derivation: the same seed must generate the same walks (hence the same
// per-node visit counts) no matter how many workers run.
func TestBuildStoreDeterministicAcrossWorkerCounts(t *testing.T) {
	g := buildTestGraph(600, 3, 2)
	nodes := g.Nodes()
	run := func(workers int) map[graph.NodeID]int64 {
		store := walkstore.New()
		eng := New(g, store, Config{Eps: 0.2, R: 2, Workers: workers, Seed: 5})
		eng.BuildStore(nodes)
		return store.VisitCounts()
	}
	a, b, c := run(1), run(4), run(4)
	for v, x := range a {
		if b[v] != x || c[v] != x {
			t.Fatalf("visit counts diverge at node %d: w1=%d w4=%d w4'=%d", v, x, b[v], c[v])
		}
	}
	if len(b) != len(a) || len(c) != len(a) {
		t.Fatalf("visit table sizes diverge: %d vs %d vs %d", len(a), len(b), len(c))
	}
}

func TestApplyEdgesMaintainsInvariants(t *testing.T) {
	g := buildTestGraph(300, 4, 4)
	nodes := g.Nodes()
	store := walkstore.New()
	eng := New(g, store, Config{Eps: 0.2, R: 4, Workers: 4, Seed: 11})
	eng.BuildStore(nodes)
	before := store.NumSegments()

	rng := rand.New(rand.NewPCG(12, 0))
	var edges []graph.Edge
	for len(edges) < 500 {
		u := graph.NodeID(rng.IntN(300))
		v := graph.NodeID(rng.IntN(300))
		if u != v {
			edges = append(edges, graph.Edge{From: u, To: v})
		}
	}
	stats := eng.ApplyEdges(edges, 13)
	if stats.Edges != len(edges) {
		t.Fatalf("applied %d edges, want %d", stats.Edges, len(edges))
	}
	if stats.Rerouted == 0 {
		t.Fatal("500 arrivals on a 300-node graph rerouted nothing — update rule not firing")
	}
	if store.NumSegments() != before {
		t.Fatalf("segment count changed: %d -> %d", before, store.NumSegments())
	}
	if err := store.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every rerouted segment must still be a real walk: consecutive nodes
	// connected by edges.
	for _, v := range nodes {
		for _, id := range store.OwnedBy(v) {
			p := store.Path(id)
			for i := 1; i < len(p); i++ {
				if !g.HasEdge(p[i-1], p[i]) {
					t.Fatalf("segment %d contains non-edge %d->%d", id, p[i-1], p[i])
				}
			}
		}
	}
}

// TestConcurrentBuildAndUpdateStress races segment generation, edge updates,
// and store reads together; run under -race.
func TestConcurrentBuildAndUpdateStress(t *testing.T) {
	g := buildTestGraph(200, 3, 6)
	nodes := g.Nodes()
	store := walkstore.New()
	eng := New(g, store, Config{Eps: 0.25, R: 2, Workers: 2, Seed: 21})
	eng.BuildStore(nodes)

	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewPCG(31, 0))
		var edges []graph.Edge
		for len(edges) < 300 {
			u := graph.NodeID(rng.IntN(200))
			v := graph.NodeID(rng.IntN(200))
			if u != v {
				edges = append(edges, graph.Edge{From: u, To: v})
			}
		}
		eng.ApplyEdges(edges, 32)
	}()
	// Concurrent readers over the store while the storm runs.
	rng := rand.New(rand.NewPCG(33, 0))
	for i := 0; i < 2000; i++ {
		v := nodes[rng.IntN(len(nodes))]
		store.Visits(v)
		store.Visitors(v)
		for _, id := range store.OwnedBy(v) {
			_ = store.Path(id)
		}
	}
	<-done
	if err := store.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFirstEdgeRevivesDanglingWalks pins the dangling-revival rule: when a
// node with stored terminal visits gains its first out-edge, about 1-eps of
// the walks that died there must continue through it.
func TestFirstEdgeRevivesDanglingWalks(t *testing.T) {
	// Star into a dangling sink: every walk from a spoke reaches node 0 and
	// dies there (node 0 has no out-edges).
	g := graph.New(0)
	const spokes = 200
	for i := 1; i <= spokes; i++ {
		g.AddEdge(graph.NodeID(i), 0)
	}
	const eps = 0.2
	store := walkstore.New()
	eng := New(g, store, Config{Eps: eps, R: 10, Workers: 2, Seed: 41})
	eng.BuildStore(g.Nodes())

	// Count stored walks whose final node is the sink.
	terminalAtSink := 0
	for _, id := range store.Visitors(0) {
		p := store.Path(id)
		if p[len(p)-1] == 0 {
			terminalAtSink++
		}
	}
	if terminalAtSink == 0 {
		t.Fatal("no walks terminate at the dangling sink; test setup broken")
	}

	// First out-edge of the sink arrives.
	stats := eng.ApplyEdges([]graph.Edge{{From: 0, To: 1}}, 42)
	if err := store.Validate(); err != nil {
		t.Fatal(err)
	}
	// Expect ~ (1-eps) * terminalAtSink revivals; allow 5 sigma of a
	// binomial around it.
	want := (1 - eps) * float64(terminalAtSink)
	sigma := math.Sqrt(float64(terminalAtSink) * eps * (1 - eps))
	if math.Abs(float64(stats.Rerouted)-want) > 5*sigma+1 {
		t.Fatalf("rerouted %d walks, want ~%.0f (+-%.0f)", stats.Rerouted, want, 5*sigma)
	}
	// Revived walks must step through the new edge 0->1.
	for _, id := range store.Visitors(0) {
		p := store.Path(id)
		for i, v := range p[:len(p)-1] {
			if v == 0 && p[i+1] != 1 {
				t.Fatalf("segment %d leaves the sink via non-edge 0->%d", id, p[i+1])
			}
		}
	}
}

// TestApplyEdgesRevivesEachFreshSourceOnce inserts the first two out-edges of
// many dangling sources with four workers, each source's pair back to back so
// the two inserts often race. Every arrival takes d from its own insert's
// reply, and only one insert per source can reply d = 1, so the revival must
// run exactly once per source: Revivals equals the number of sources (a
// source revived twice would need a second reply of 1, and one skipped would
// leave the total short).
func TestApplyEdgesRevivesEachFreshSourceOnce(t *testing.T) {
	const sources, rounds = 300, 10
	for round := uint64(0); round < rounds; round++ {
		// Node 0 points at every source, so stored walks die at the sources.
		g := graph.New(0)
		for s := 1; s <= sources; s++ {
			g.AddEdge(0, graph.NodeID(s))
		}
		store := walkstore.New()
		eng := New(g, store, Config{Eps: 0.2, R: 4, Workers: 4, Seed: 61 + round})
		eng.BuildStore(g.Nodes())
		var edges []graph.Edge
		for s := 1; s <= sources; s++ {
			src := graph.NodeID(s)
			edges = append(edges, graph.Edge{From: src, To: 0}, graph.Edge{From: src, To: sources + 1})
		}
		stats := eng.ApplyEdges(edges, 62+round)
		if stats.Revivals != sources {
			t.Fatalf("round %d: %d revivals for %d fresh sources, want exactly one each", round, stats.Revivals, sources)
		}
		if err := store.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := store.ValidateSteps(g.HasEdge); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	g := graph.New(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Eps=0")
		}
	}()
	New(g, walkstore.New(), Config{Eps: 0})
}
