package salsa

import (
	"math/rand/v2"
	"sync"
	"testing"

	"fastppr/internal/gen"
	"fastppr/internal/graph"
	"fastppr/internal/repair"
)

// This file pins the batching-era guarantees at the maintainer level: the
// epoch-keyed arena compaction must be bitwise invisible to a fixed-seed
// serialized run (phase-batched writes are checked against the unbatched
// reference in ref_test.go), and compaction must survive a parallel storm
// racing personalized queries under -race.

// churnRun drives a fixed-seed serialized churn storm (arrivals + deletions)
// through a fresh maintainer with the given config knobs and returns the
// final estimate vectors and counters, validating the store each round.
func churnRun(t *testing.T, cfg Config) (auth, hub map[graph.NodeID]float64, cnt Counters) {
	t.Helper()
	const n = 60
	rounds, batch := 6, 100
	if testing.Short() {
		rounds, batch = 3, 50
	}
	cfg.Eps, cfg.R, cfg.Workers, cfg.Seed = 0.2, 8, 1, 301
	mt, _ := newMaintainer(nodeGraph(n), cfg)
	mt.Bootstrap()
	rng := rand.New(rand.NewPCG(302, 0))
	for round := 0; round < rounds; round++ {
		events := gen.PowerLawChurnStream(n, batch, 0.9, 0.35, rng)
		mt.ApplyEvents(events)
		validateAll(t, mt)
	}
	return mt.AuthorityAll(), mt.HubAll(), mt.Counters()
}

func requireRunsEqual(t *testing.T, label string, authA, authB, hubA, hubB map[graph.NodeID]float64, cntA, cntB Counters) {
	t.Helper()
	if cntA != cntB {
		t.Fatalf("%s: counters diverged:\nA %+v\nB %+v", label, cntA, cntB)
	}
	if cntA.SlowNoops != 0 {
		t.Fatalf("%s: SlowNoops=%d, want 0", label, cntA.SlowNoops)
	}
	for name, pair := range map[string][2]map[graph.NodeID]float64{
		"authority": {authA, authB},
		"hub":       {hubA, hubB},
	} {
		a, b := pair[0], pair[1]
		if len(a) != len(b) {
			t.Fatalf("%s: %s vectors differ in size: %d vs %d", label, name, len(a), len(b))
		}
		for v, x := range b {
			if a[v] != x {
				t.Fatalf("%s: %s[%d]=%v vs %v", label, name, v, a[v], x)
			}
		}
	}
}

// TestCompactEveryBitwise pins compaction's no-logical-state contract
// end-to-end: the same fixed-seed serialized storm with CompactEvery firing
// every few updates must be bitwise identical to the run that never
// compacts, while actually shrinking the arena. validateAll runs every
// round, so Validate and ValidateSteps are checked after many compactions.
func TestCompactEveryBitwise(t *testing.T) {
	auth0, hub0, cnt0 := churnRun(t, Config{})
	authC, hubC, cntC := churnRun(t, Config{CompactEvery: 3})
	requireRunsEqual(t, "CompactEvery=3 vs off", auth0, authC, hub0, hubC, cnt0, cntC)

	// The trigger must actually reclaim: checking every mutation
	// (CompactEvery=1) compacts whenever the garbage fraction crosses the
	// worthwhile threshold, so the final arena must be strictly smaller than
	// the never-compacting run's and its garbage ratio bounded near that
	// threshold.
	const n = 60
	run := func(every int) (live, total int64) {
		mt, _ := newMaintainer(nodeGraph(n), Config{Eps: 0.2, R: 8, Workers: 1, Seed: 301, CompactEvery: every})
		mt.Bootstrap()
		rng := rand.New(rand.NewPCG(302, 0))
		mt.ApplyEvents(gen.PowerLawChurnStream(n, 100, 0.9, 0.35, rng))
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

// TestCompactRacesQueriesAndStorm is the -race stress the ISSUE names:
// arena compactions (both the maintainer's CompactEvery trigger inside a
// parallel storm and an external Compact loop) race personalized queries
// chasing stored paths. Queries must stay well-formed throughout and the
// store must validate afterwards.
func TestCompactRacesQueriesAndStorm(t *testing.T) {
	n, q, storm := 150, 400, 1500
	if testing.Short() {
		n, q, storm = 90, 200, 500
	}
	rng := rand.New(rand.NewPCG(311, 0))
	base := gen.PreferentialAttachment(n, 5, rng)
	mt, _ := newMaintainer(base, Config{
		Eps: 0.2, R: 6, UpdateWorkers: 4, Seed: 312, QueryWalks: q, CompactEvery: 7,
	})
	mt.Bootstrap()

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
			// Only rewrite the arena when churn has actually left garbage;
			// a hot loop of full-arena copies would just starve the storm.
			if live, total := mt.Store().ArenaStats(); total > live {
				mt.Store().Compact()
			}
		}
	}()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qrng := rand.New(rand.NewPCG(313, uint64(i)))
			for {
				select {
				case <-done:
					return
				default:
				}
				src := graph.NodeID(qrng.IntN(n))
				res := mt.Personalized(src)
				var sum float64
				for _, s := range res.AuthorityAll() {
					sum += s
				}
				if len(res.AuthorityAll()) > 0 && (sum < 0.999999 || sum > 1.000001) {
					t.Errorf("source %d: authority scores sum to %v under compacting storm", src, sum)
					return
				}
			}
		}(i)
	}
	mt.ApplyEvents(events)
	close(done)
	wg.Wait()
	validateAll(t, mt)
	c := mt.Counters()
	if c.SlowNoops != 0 {
		t.Fatalf("compacting storm recorded %d no-op slow paths", c.SlowNoops)
	}
	if c.Queries == 0 {
		t.Fatal("no queries completed during the storm")
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
	mt, _ := newMaintainer(nodeGraph(n), Config{Eps: 0.2, R: 8, Workers: 1, Seed: 301, CompactEvery: 3})
	mt.Bootstrap()
	mt.ApplyEvents(gen.PowerLawChurnStream(n, 100, 0.9, 0.35, rand.New(rand.NewPCG(302, 0))))
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
