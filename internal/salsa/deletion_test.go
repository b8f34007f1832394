package salsa

import (
	"math"
	"math/rand/v2"
	"testing"

	"fastppr/internal/exact"
	"fastppr/internal/gen"
	"fastppr/internal/graph"
)

// nodeGraph returns an edgeless graph holding nodes 0..n-1.
func nodeGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i))
	}
	return g
}

// validateAll runs the full store recount plus the deletion invariant: no
// stored step (forward or backward — ValidateSteps orients backward steps
// against the graph) may traverse a missing edge.
func validateAll(t *testing.T, mt *Maintainer) {
	t.Helper()
	if err := mt.Store().Validate(); err != nil {
		t.Fatal(err)
	}
	g := mt.Social().Graph()
	if err := mt.Store().ValidateSteps(g.HasEdge); err != nil {
		t.Fatal(err)
	}
}

// TestConvergesToOracleOnShrinkGrowStream is the deletion-side ground-truth
// test for the sided variant: interleaved grow and shrink phases must leave
// both the authority and hub estimates tracking the exact chain on whatever
// graph survives.
func TestConvergesToOracleOnShrinkGrowStream(t *testing.T) {
	n, r := 120, 50
	if testing.Short() {
		n, r = 80, 30
	}
	const eps = 0.2
	rng := rand.New(rand.NewPCG(81, 0))
	full := gen.PreferentialAttachment(n, 4, rng)
	arrivals := gen.RandomPermutationStream(full, rng)
	events := gen.ShrinkGrowStream(arrivals, 5, 0.25, rng)

	mt, soc := newMaintainer(nodeGraph(n), Config{Eps: eps, R: r, Workers: 4, Seed: 82})
	mt.Bootstrap()
	mt.ApplyEvents(events)

	validateAll(t, mt)
	cnt := mt.Counters()
	if cnt.Deletions == 0 || cnt.DelRerouted == 0 {
		t.Fatalf("shrink phases did no deletion work: %+v", cnt)
	}
	if cnt.DelMisses != 0 {
		t.Fatalf("DelMisses=%d on an in-order only-live churn stream", cnt.DelMisses)
	}
	if cnt.SlowNoops != 0 {
		t.Fatalf("SlowNoops=%d, want 0", cnt.SlowNoops)
	}
	if cnt.FastSkips+cnt.EmptySkips+cnt.SlowPaths != 2*cnt.Arrivals {
		t.Fatalf("deletions leaked into the arrival phase partition: %+v", cnt)
	}

	auth, hub := exact.Salsa(soc.Graph(), eps, oracleTol)
	if d := exact.L1(mt.AuthorityAll(), auth); d > 0.25 {
		t.Fatalf("churned authority L1 vs oracle=%v", d)
	}
	if d := exact.L1(mt.HubAll(), hub); d > 0.25 {
		t.Fatalf("churned hub L1 vs oracle=%v", d)
	}
}

// TestDeletionLegacyScanBitwise pins both unroute phases at their strongest:
// a fixed-seed serialized churn storm must produce bitwise-identical
// estimates and counters with the pending-position index on and off.
func TestDeletionLegacyScanBitwise(t *testing.T) {
	n, m := 100, 700
	if testing.Short() {
		n, m = 60, 300
	}
	run := func(legacy bool) (map[graph.NodeID]float64, map[graph.NodeID]float64, Counters) {
		mt, _ := newMaintainer(nodeGraph(n), Config{Eps: 0.2, R: 5, Workers: 1, Seed: 91, LegacyScan: legacy})
		mt.Bootstrap()
		rng := rand.New(rand.NewPCG(92, 0))
		events := gen.PowerLawChurnStream(n, m, 0.8, 0.35, rng)
		mt.ApplyEvents(events)
		validateAll(t, mt)
		return mt.AuthorityAll(), mt.HubAll(), mt.Counters()
	}

	authIdx, hubIdx, cntIdx := run(false)
	authLeg, hubLeg, cntLeg := run(true)
	if cntIdx != cntLeg {
		t.Fatalf("counters diverged:\nindexed %+v\nlegacy  %+v", cntIdx, cntLeg)
	}
	if cntIdx.Deletions == 0 || cntIdx.DelRerouted+cntIdx.DelTruncated == 0 {
		t.Fatalf("churn stream exercised no deletion repair: %+v", cntIdx)
	}
	for v, x := range authLeg {
		if authIdx[v] != x {
			t.Fatalf("authority[%d]=%v indexed, %v legacy", v, authIdx[v], x)
		}
	}
	for v, x := range hubLeg {
		if hubIdx[v] != x {
			t.Fatalf("hub[%d]=%v indexed, %v legacy", v, hubIdx[v], x)
		}
	}
}

// TestBackwardTruncation pins the backward half of the reverse revival as the
// exact inverse of TestBackwardRevival: revive x's backward terminals through
// its first in-edge, then delete that in-edge — every backward step x -> 0
// must truncate deterministically (the backward law has no coin), restoring
// x's backward-pending terminals.
func TestBackwardTruncation(t *testing.T) {
	const n = 64
	const r = 8
	g := graph.New(0)
	x := graph.NodeID(1000)
	for i := 0; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	g.AddEdge(x, 0) // x: out-edge into the cycle, no in-edges
	mt, _ := newMaintainer(g, Config{Eps: 0.2, R: r, Workers: 1, Seed: 93})
	mt.Bootstrap()

	mt.ApplyEdge(graph.Edge{From: 0, To: x})
	revived := mt.Counters().Revived
	if revived == 0 {
		t.Fatal("first in-edge revived nothing; setup broken")
	}
	mt.ApplyDeletion(graph.Edge{From: 0, To: x})
	validateAll(t, mt)
	cnt := mt.Counters()
	if cnt.DelTruncated == 0 {
		t.Fatalf("losing the only in-edge truncated nothing: %+v", cnt)
	}
	if got := mt.Store().PendingTerminals(x, 1); got < int64(r) {
		t.Fatalf("%d backward-pending terminals at x after deletion, want >= %d", got, r)
	}
	// No stored backward step out of x may survive: its in-neighborhood is
	// empty again.
	for _, id := range mt.Store().Visitors(x) {
		p := mt.Store().Path(id)
		side := mt.Store().SideOf(id)
		for i := 0; i < len(p)-1; i++ {
			if p[i] == x && side.PendingAt(i) == 1 {
				t.Fatalf("segment %d still takes backward step x->%d with no in-edges", id, p[i+1])
			}
		}
	}
}

// TestForwardTruncation pins the forward half: deleting a node's only
// out-edge leaves its stored forward steps nowhere to go, so they truncate
// into forward-pending terminals that the next out-edge revives under 1-eps.
func TestForwardTruncation(t *testing.T) {
	const spokes = 100
	g := graph.New(0)
	for i := 1; i <= spokes; i++ {
		g.AddEdge(graph.NodeID(i), 0)
	}
	mt, _ := newMaintainer(g, Config{Eps: 0.2, R: 4, Workers: 1, Seed: 94})
	mt.Bootstrap()

	mt.ApplyDeletion(graph.Edge{From: 7, To: 0})
	validateAll(t, mt)
	cnt := mt.Counters()
	if cnt.DelTruncated == 0 {
		t.Fatalf("losing the only out-edge truncated nothing: %+v", cnt)
	}
	if got := mt.Store().PendingTerminals(7, 0); got == 0 {
		t.Fatal("no forward-pending terminals at node 7 after its last out-edge left")
	}
	// The re-add must revive them under the usual forward 1-eps law.
	mt.ApplyEdge(graph.Edge{From: 7, To: 0})
	validateAll(t, mt)
	if mt.Counters().Revived == 0 {
		t.Fatal("re-adding the out-edge revived nothing")
	}
}

// TestDegenerateDeletions sweeps the remaining edge cases for the sided
// variant.
func TestDegenerateDeletions(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"missing edge is a counted no-op", func(t *testing.T) {
			mt, _ := newMaintainer(nodeGraph(2), Config{Eps: 0.2, R: 5, Workers: 1, Seed: 95})
			mt.Bootstrap()
			mt.ApplyDeletion(graph.Edge{From: 0, To: 1})
			validateAll(t, mt)
			cnt := mt.Counters()
			if cnt.Deletions != 1 || cnt.DelMisses != 1 {
				t.Fatalf("miss not counted: %+v", cnt)
			}
		}},
		{"never-bootstrapped store", func(t *testing.T) {
			g := nodeGraph(2)
			g.AddEdge(0, 1)
			mt, soc := newMaintainer(g, Config{Eps: 0.2, R: 5, Workers: 1, Seed: 96})
			mt.ApplyDeletion(graph.Edge{From: 0, To: 1})
			validateAll(t, mt)
			if soc.Graph().HasEdge(0, 1) {
				t.Fatal("edge survived deletion")
			}
			cnt := mt.Counters()
			if cnt.Deletions != 1 || cnt.DelMisses != 0 || cnt.DelRerouted != 0 || cnt.DelTruncated != 0 {
				t.Fatalf("unexpected accounting: %+v", cnt)
			}
		}},
		{"multigraph copy survives", func(t *testing.T) {
			g := nodeGraph(3)
			g.AddEdge(0, 1)
			g.AddEdge(0, 1)
			g.AddEdge(1, 2)
			g.AddEdge(2, 0)
			mt, soc := newMaintainer(g, Config{Eps: 0.2, R: 10, Workers: 1, Seed: 97})
			mt.Bootstrap()
			mt.ApplyDeletion(graph.Edge{From: 0, To: 1})
			validateAll(t, mt)
			if c := soc.CountEdges(0, 1); c != 1 {
				t.Fatalf("CountEdges=%d after removal, want 1", c)
			}
			// A copy survives on both sides, so nothing may truncate.
			if cnt := mt.Counters(); cnt.DelTruncated != 0 {
				t.Fatalf("truncated despite a surviving copy: %+v", cnt)
			}
		}},
		{"delete then re-add round trip", func(t *testing.T) {
			g := nodeGraph(3)
			g.AddEdge(0, 1)
			g.AddEdge(1, 2)
			g.AddEdge(2, 0)
			mt, _ := newMaintainer(g, Config{Eps: 0.2, R: 20, Workers: 1, Seed: 98})
			mt.Bootstrap()
			mt.ApplyDeletion(graph.Edge{From: 1, To: 2})
			validateAll(t, mt)
			mt.ApplyEdge(graph.Edge{From: 1, To: 2})
			validateAll(t, mt)
			for _, v := range []graph.NodeID{0, 1, 2} {
				if a := mt.AuthorityEstimate(v); math.IsNaN(a) || a < 0 {
					t.Fatalf("authority[%d]=%v after round trip", v, a)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// distinctDeletions counts the distinct edges a batch deletes.
func distinctDeletions(events []graph.Event) int64 {
	seen := map[graph.Edge]bool{}
	for _, ev := range events {
		if ev.Del {
			seen[ev.Edge] = true
		}
	}
	return int64(len(seen))
}

// TestParallelSweepRevisitsOnlySuspects is the sided version of pagerank's:
// parallel churn batches with four update workers on small dense graphs over
// twenty seeds, where a forward or backward step of one worker's regrown tail
// most often crosses an edge another worker is deleting. After every batch
// no stored step may cross a missing edge, and the straggler sweep may have
// re-repaired only suspects.
func TestParallelSweepRevisitsOnlySuspects(t *testing.T) {
	rounds, batch := 5, 100
	if testing.Short() {
		rounds, batch = 3, 60
	}
	var suspects, swept int64
	for seed := uint64(1); seed <= 20; seed++ {
		const n = 12
		mt, _ := newMaintainer(nodeGraph(n), Config{Eps: 0.2, R: 6, Workers: 1, Seed: seed, UpdateWorkers: 4})
		mt.Bootstrap()
		rng := rand.New(rand.NewPCG(seed, 81))
		for round := 0; round < rounds; round++ {
			events := gen.PowerLawChurnStream(n, batch, 0.6, 0.45, rng)
			before := mt.Counters()
			mt.ApplyEvents(events)
			validateAll(t, mt)
			after := mt.Counters()
			s, w := after.Suspects-before.Suspects, after.Swept-before.Swept
			if w > s || s > distinctDeletions(events) {
				t.Fatalf("seed %d round %d: swept %d of %d suspects, %d distinct deletions", seed, round, w, s, distinctDeletions(events))
			}
			suspects += s
			swept += w
		}
		if c := mt.Counters(); c.SlowNoops != 0 {
			t.Fatalf("seed %d: SlowNoops=%d, want 0", seed, c.SlowNoops)
		}
	}
	if suspects == 0 {
		t.Fatal("no regrown tail ever stepped on a deleted edge: the sweep went unexercised")
	}
	t.Logf("%d suspects, %d swept", suspects, swept)
}

// TestChurnFuzz is the sided shrink-grow fuzz harness: random interleaved
// add/delete batches with per-batch recounts and the missing-edge-step
// invariant, serialized and with the parallel worker pool.
func TestChurnFuzz(t *testing.T) {
	rounds, batch := 10, 120
	if testing.Short() {
		rounds, batch = 5, 60
	}
	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "serialized", 4: "parallel"}[workers], func(t *testing.T) {
			const n = 60
			mt, _ := newMaintainer(nodeGraph(n), Config{
				Eps: 0.2, R: 10, Workers: 4, Seed: 99, UpdateWorkers: workers,
			})
			mt.Bootstrap()
			rng := rand.New(rand.NewPCG(100, uint64(workers)))
			for round := 0; round < rounds; round++ {
				events := gen.PowerLawChurnStream(n, batch, 0.9, 0.4, rng)
				mt.ApplyEvents(events)
				validateAll(t, mt)
			}
			cnt := mt.Counters()
			if cnt.Deletions == 0 || cnt.Arrivals == 0 {
				t.Fatalf("fuzz stream was one-sided: %+v", cnt)
			}
			if cnt.SlowNoops != 0 {
				t.Fatalf("SlowNoops=%d, want 0", cnt.SlowNoops)
			}
			if cnt.FastSkips+cnt.EmptySkips+cnt.SlowPaths != 2*cnt.Arrivals {
				t.Fatalf("phase counters do not partition arrivals: %+v", cnt)
			}
			if workers == 1 && cnt.DelMisses != 0 {
				t.Fatalf("DelMisses=%d on a serialized only-live stream", cnt.DelMisses)
			}
			for v, x := range mt.AuthorityAll() {
				if math.IsNaN(x) || x < 0 {
					t.Fatalf("authority[%d]=%v", v, x)
				}
			}
		})
	}
}
