package pagerank

import (
	"math"
	"math/rand/v2"
	"testing"

	"fastppr/internal/exact"
	"fastppr/internal/gen"
	"fastppr/internal/graph"
)

// validateAll runs the full store recount plus the deletion invariant: after
// any churn no stored step may traverse a missing edge.
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
// test: stream interleaved grow and shrink phases through the maintainer and
// require the estimates on the churned graph to match exact power iteration
// on the final graph — the reverse reroute rule keeps the stored walks
// distributed as fresh walks on whatever graph survives.
func TestConvergesToOracleOnShrinkGrowStream(t *testing.T) {
	n, m, r := 100, 3000, 100
	if testing.Short() {
		n, m, r = 60, 1200, 60
	}
	const eps = 0.2
	mt, soc := newMaintainer(n, Config{Eps: eps, R: r, Workers: 4, Seed: 31})
	mt.Bootstrap()

	rng := rand.New(rand.NewPCG(32, 0))
	arrivals := gen.DirichletStream(n, m, rng)
	events := gen.ShrinkGrowStream(arrivals, 6, 0.3, rng)
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

	pi := exact.PageRank(soc.Graph(), eps, oracleTol)
	got := mt.ApproxAll()
	// Observed ~0.06 at these fixed seeds; ~3x headroom.
	if d := exact.L1(got, pi); d > 0.18 {
		t.Fatalf("L1(maintainer, oracle)=%v exceeds tolerance", d)
	}
	for v, x := range got {
		if math.IsNaN(x) || x < 0 {
			t.Fatalf("estimate[%d]=%v", v, x)
		}
	}
}

// TestDeletionLegacyScanBitwise extends the bitwise legacy/indexed pin to the
// deletion path: a fixed-seed serialized churn storm must produce identical
// estimates and counters with the pending-position index on and off, because
// both unroute flavors enumerate the same (segment, position) candidates and
// draw the same coin stream.
func TestDeletionLegacyScanBitwise(t *testing.T) {
	n, m := 120, 900
	if testing.Short() {
		n, m = 70, 400
	}
	run := func(legacy bool) (map[graph.NodeID]float64, Counters) {
		mt, _ := newMaintainer(n, Config{Eps: 0.2, R: 5, Workers: 1, Seed: 41, LegacyScan: legacy})
		mt.Bootstrap()
		rng := rand.New(rand.NewPCG(42, 0))
		events := gen.PowerLawChurnStream(n, m, 0.8, 0.35, rng)
		mt.ApplyEvents(events)
		validateAll(t, mt)
		return mt.ApproxAll(), mt.Counters()
	}

	gotIdx, cntIdx := run(false)
	gotLeg, cntLeg := run(true)
	if cntIdx != cntLeg {
		t.Fatalf("counters diverged:\nindexed %+v\nlegacy  %+v", cntIdx, cntLeg)
	}
	if cntIdx.Deletions == 0 {
		t.Fatal("churn stream produced no deletions")
	}
	if cntIdx.SlowNoops != 0 {
		t.Fatalf("SlowNoops=%d, want 0", cntIdx.SlowNoops)
	}
	if len(gotIdx) != len(gotLeg) {
		t.Fatalf("estimate vectors differ in size: %d vs %d", len(gotIdx), len(gotLeg))
	}
	for v, x := range gotLeg {
		if gotIdx[v] != x {
			t.Fatalf("estimate[%d]=%v indexed, %v legacy", v, gotIdx[v], x)
		}
	}
}

// TestDegenerateDeletions sweeps the deletion edge cases: the reverse revival
// (last out-edge gone), edges never walked, deletion before any walks exist,
// and delete-then-re-add. Nothing may panic or produce NaN, and the store
// invariants must hold after every case.
func TestDegenerateDeletions(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"last out-edge truncates", func(t *testing.T) {
			// 0 -> 1 is node 0's only out-edge; every bootstrap walk from 0
			// steps through it. Deleting it must truncate them all at 0.
			mt, soc := newMaintainer(3, Config{Eps: 0.2, R: 20, Workers: 1, Seed: 1})
			soc.AddEdge(0, 1)
			soc.AddEdge(1, 2)
			mt.Bootstrap()
			mt.ApplyDeletion(graph.Edge{From: 0, To: 1})
			validateAll(t, mt)
			cnt := mt.Counters()
			if cnt.DelTruncated == 0 {
				t.Fatalf("no reverse revival recorded: %+v", cnt)
			}
			if cnt.DelRerouted != 0 {
				t.Fatalf("rerouted through a surviving edge that does not exist: %+v", cnt)
			}
			// Walks from 0 now terminate at 0; mass past the cut is gone.
			if est := mt.Estimate(0); math.IsNaN(est) || est <= 0 {
				t.Fatalf("estimate(0)=%v", est)
			}
		}},
		{"never-walked edge is cheap", func(t *testing.T) {
			// 1 is dangling at bootstrap, so every walk reaching it stops
			// there — node 1's stored hits are all terminal. Slipping 1 -> 2
			// into the graph behind the maintainer's back (no arrival repair)
			// then deleting it exercises a scan with hits but zero
			// candidates: no coin, no repair, just the removal.
			mt, soc := newMaintainer(3, Config{Eps: 0.2, R: 10, Workers: 1, Seed: 2})
			soc.AddEdge(0, 1)
			mt.Bootstrap()
			soc.AddEdge(1, 2)
			before := mt.Counters()
			mt.ApplyDeletion(graph.Edge{From: 1, To: 2})
			validateAll(t, mt)
			cnt := mt.Counters()
			if cnt.Deletions != before.Deletions+1 {
				t.Fatalf("deletion not counted: %+v", cnt)
			}
			if cnt.DelRerouted != before.DelRerouted || cnt.DelTruncated != before.DelTruncated {
				t.Fatalf("repair work on a walked-free edge: %+v", cnt)
			}
		}},
		{"never-bootstrapped store", func(t *testing.T) {
			// No Bootstrap: the walk store is empty. The deletion must still
			// remove the edge and count itself without touching segments.
			mt, soc := newMaintainer(2, Config{Eps: 0.2, R: 5, Workers: 1, Seed: 3})
			soc.AddEdge(0, 1)
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
		{"missing edge is a counted no-op", func(t *testing.T) {
			mt, _ := newMaintainer(2, Config{Eps: 0.2, R: 5, Workers: 1, Seed: 4})
			mt.Bootstrap()
			mt.ApplyDeletion(graph.Edge{From: 0, To: 1})
			validateAll(t, mt)
			cnt := mt.Counters()
			if cnt.Deletions != 1 || cnt.DelMisses != 1 {
				t.Fatalf("miss not counted: %+v", cnt)
			}
		}},
		{"delete then re-add", func(t *testing.T) {
			// The truncated terminals must revive when the edge returns: after
			// re-adding 0 -> 1, no walk from 0 may still dangle there (the
			// revival law fires on first arrival at a dangling terminal).
			mt, soc := newMaintainer(3, Config{Eps: 0.2, R: 30, Workers: 1, Seed: 5})
			soc.AddEdge(0, 1)
			soc.AddEdge(1, 0)
			mt.Bootstrap()
			mt.ApplyDeletion(graph.Edge{From: 0, To: 1})
			validateAll(t, mt)
			mid := mt.Counters()
			if mid.DelTruncated == 0 {
				t.Fatalf("deletion of the only out-edge truncated nothing: %+v", mid)
			}
			mt.ApplyEdge(graph.Edge{From: 0, To: 1})
			validateAll(t, mt)
			cnt := mt.Counters()
			if cnt.Revived == 0 {
				t.Fatalf("re-add revived nothing: %+v", cnt)
			}
			if est := mt.Estimate(1); math.IsNaN(est) || est <= 0 {
				t.Fatalf("estimate(1)=%v after re-add", est)
			}
		}},
		{"multigraph copy survives", func(t *testing.T) {
			// Two copies of 0 -> 1: removing one leaves every stored step
			// legal (u still has an edge to v), so ValidateSteps must pass
			// whether or not individual steps were re-sampled.
			mt, soc := newMaintainer(3, Config{Eps: 0.2, R: 20, Workers: 1, Seed: 6})
			soc.AddEdge(0, 1)
			soc.AddEdge(0, 1)
			soc.AddEdge(1, 2)
			mt.Bootstrap()
			if c := soc.CountEdges(0, 1); c != 2 {
				t.Fatalf("CountEdges=%d, want 2", c)
			}
			mt.ApplyDeletion(graph.Edge{From: 0, To: 1})
			validateAll(t, mt)
			if c := soc.CountEdges(0, 1); c != 1 {
				t.Fatalf("CountEdges=%d after removal, want 1", c)
			}
			cnt := mt.Counters()
			if cnt.DelTruncated != 0 {
				t.Fatalf("truncated despite a surviving copy: %+v", cnt)
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

// TestParallelSweepRevisitsOnlySuspects runs parallel churn batches with four
// update workers on small dense graphs — where one worker's regrown tail most
// often steps through an edge another worker is deleting — over twenty
// seeds. After every batch no stored step may cross a missing edge, and the
// straggler sweep may have re-repaired only suspects: distinct deleted edges
// some sampled step was recorded on.
func TestParallelSweepRevisitsOnlySuspects(t *testing.T) {
	rounds, batch := 6, 120
	if testing.Short() {
		rounds, batch = 3, 80
	}
	var suspects, swept int64
	for seed := uint64(1); seed <= 20; seed++ {
		const n = 12
		mt, _ := newMaintainer(n, Config{Eps: 0.15, R: 12, Workers: 1, Seed: seed, UpdateWorkers: 4})
		mt.Bootstrap()
		rng := rand.New(rand.NewPCG(seed, 71))
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

// TestChurnFuzz is the shrink-grow fuzz harness: random interleaved
// add/delete batches with per-batch full-store recounts and the
// missing-edge-step invariant, serialized and with the parallel worker pool,
// under whatever -race the CI run adds.
func TestChurnFuzz(t *testing.T) {
	rounds, batch := 12, 150
	if testing.Short() {
		rounds, batch = 6, 80
	}
	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "serialized", 4: "parallel"}[workers], func(t *testing.T) {
			const n = 80
			mt, _ := newMaintainer(n, Config{
				Eps: 0.2, R: 20, Workers: 4, Seed: 51, UpdateWorkers: workers,
			})
			mt.Bootstrap()
			rng := rand.New(rand.NewPCG(52, uint64(workers)))
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
			if workers == 1 && cnt.DelMisses != 0 {
				t.Fatalf("DelMisses=%d on a serialized only-live stream", cnt.DelMisses)
			}
			for v, x := range mt.ApproxAll() {
				if math.IsNaN(x) || x < 0 {
					t.Fatalf("estimate[%d]=%v", v, x)
				}
			}
		})
	}
}
