package pagerank

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"fastppr/internal/gen"
	"fastppr/internal/graph"
	"fastppr/internal/repair"
)

// This file pins the batching-era guarantees for the PageRank maintainer:
// epoch-keyed arena compaction must be bitwise invisible to a fixed-seed
// serialized run (phase-batched writes are checked against the unbatched
// reference in ref_test.go), and compaction must survive estimate reads
// racing a parallel storm under -race.

// churnRun drives a fixed-seed serialized churn storm through a fresh
// maintainer with the given config knobs and returns the final estimates and
// counters, validating the store each round.
func churnRun(t *testing.T, cfg Config) (map[graph.NodeID]float64, Counters) {
	t.Helper()
	const n = 60
	rounds, batch := 6, 120
	if testing.Short() {
		rounds, batch = 3, 60
	}
	cfg.Eps, cfg.R, cfg.Workers, cfg.Seed = 0.2, 8, 1, 321
	mt, _ := newMaintainer(n, cfg)
	mt.Bootstrap()
	rng := rand.New(rand.NewPCG(322, 0))
	for round := 0; round < rounds; round++ {
		events := gen.PowerLawChurnStream(n, batch, 0.9, 0.35, rng)
		mt.ApplyEvents(events)
		validateAll(t, mt)
	}
	return mt.ApproxAll(), mt.Counters()
}

func requireRunsEqual(t *testing.T, label string, a, b map[graph.NodeID]float64, cntA, cntB Counters) {
	t.Helper()
	if cntA != cntB {
		t.Fatalf("%s: counters diverged:\nA %+v\nB %+v", label, cntA, cntB)
	}
	if cntA.SlowNoops != 0 {
		t.Fatalf("%s: SlowNoops=%d, want 0", label, cntA.SlowNoops)
	}
	if len(a) != len(b) {
		t.Fatalf("%s: estimate vectors differ in size: %d vs %d", label, len(a), len(b))
	}
	for v, x := range b {
		if a[v] != x {
			t.Fatalf("%s: estimate[%d]=%v vs %v", label, v, a[v], x)
		}
	}
}

// TestCompactEveryBitwise pins compaction's no-logical-state contract at the
// maintainer level: the same fixed-seed storm with CompactEvery firing every
// few updates is bitwise identical to the never-compacting run, while
// CompactEvery=1 leaves the arena dense. validateAll runs every round, so
// Validate and ValidateSteps are checked after many compactions.
func TestCompactEveryBitwise(t *testing.T) {
	est0, cnt0 := churnRun(t, Config{})
	estC, cntC := churnRun(t, Config{CompactEvery: 3})
	requireRunsEqual(t, "CompactEvery=3 vs off", est0, estC, cnt0, cntC)

	const n = 60
	run := func(every int) (live, total int64) {
		mt, _ := newMaintainer(n, Config{Eps: 0.2, R: 8, Workers: 1, Seed: 321, CompactEvery: every})
		mt.Bootstrap()
		rng := rand.New(rand.NewPCG(322, 0))
		mt.ApplyEvents(gen.PowerLawChurnStream(n, 120, 0.9, 0.35, rng))
		validateAll(t, mt)
		return mt.Store().ArenaStats()
	}
	live0, total0 := run(0)
	liveC, totalC := run(1)
	if liveC != live0 {
		t.Fatalf("live slots diverged: %d vs %d", liveC, live0)
	}
	if totalC >= total0 {
		t.Fatalf("CompactEvery=1 arena (%d) not smaller than never-compacting (%d)", totalC, total0)
	}
	if g := float64(totalC-liveC) / float64(totalC); g > 0.3 {
		t.Fatalf("CompactEvery=1 left %.0f%% garbage, want <= 30%%", 100*g)
	}
}

// TestCompactRacesEstimatesAndStorm is the -race stress for the PageRank
// side: CompactEvery fires from storm workers while estimate readers snapshot
// visit fractions and an external compactor races both.
func TestCompactRacesEstimatesAndStorm(t *testing.T) {
	n, storm := 150, 1200
	if testing.Short() {
		n, storm = 90, 400
	}
	mt, _ := newMaintainer(n, Config{
		Eps: 0.2, R: 6, UpdateWorkers: 4, Seed: 332, CompactEvery: 7,
	})
	mt.Bootstrap()
	rng := rand.New(rand.NewPCG(331, 0))
	events := gen.PowerLawChurnStream(n, storm, 0.9, 0.3, rng)

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() { // external compactor, racing the CompactEvery trigger
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if live, total := mt.Store().ArenaStats(); total > live {
				mt.Store().Compact()
			}
		}
	}()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qrng := rand.New(rand.NewPCG(333, uint64(i)))
			for {
				select {
				case <-done:
					return
				default:
				}
				v := graph.NodeID(qrng.IntN(n))
				if x := mt.Estimate(v); math.IsNaN(x) || x < 0 {
					t.Errorf("estimate[%d]=%v under compacting storm", v, x)
					return
				}
			}
		}(i)
	}
	mt.ApplyEvents(events)
	close(done)
	wg.Wait()
	validateAll(t, mt)
	if c := mt.Counters(); c.SlowNoops != 0 {
		t.Fatalf("compacting storm recorded %d no-op slow paths", c.SlowNoops)
	}
}

// TestUpdaterScratchReleased pins the end-of-phase contract of the
// maintainer's serialized worker: frozen paths alias the walk store's arena
// and staged tails alias the worker's tail buffer, so once a phase has
// flushed (repair.Kernel.Release) neither may survive anywhere in the
// scratch slices' capacity — a hub-sized freeze followed by shorter ones
// used to leave its tail entries pinning an arena that Compact had already
// replaced.
func TestUpdaterScratchReleased(t *testing.T) {
	const n = 60
	mt, _ := newMaintainer(n, Config{Eps: 0.2, R: 8, Workers: 1, Seed: 321, CompactEvery: 3})
	mt.Bootstrap()
	mt.ApplyEvents(gen.PowerLawChurnStream(n, 120, 0.9, 0.35, rand.New(rand.NewPCG(322, 0))))
	_, w := repair.Serial(mt.shell)
	checkScratchReleased(t, w)
}

// checkScratchReleased fails t if any slot of w's frozen-path or staged-tail
// scratch, up to its capacity, still holds a reference.
func checkScratchReleased(t *testing.T, w *repair.Worker) {
	t.Helper()
	paths, tms := w.Scratch()
	if len(paths) == 0 || len(tms) == 0 {
		t.Fatalf("stream never used the scratch: cap(paths)=%d cap(tms)=%d", len(paths), len(tms))
	}
	for i, p := range paths {
		if p != nil {
			t.Fatalf("paths[%d] of %d still holds a %d-node arena path after the phase ended", i, len(paths), len(p))
		}
	}
	for i, tm := range tms {
		if tm.NewTail != nil {
			t.Fatalf("tms[%d] of %d still holds a staged tail after the flush", i, len(tms))
		}
	}
}
