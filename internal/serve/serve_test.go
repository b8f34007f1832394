package serve

import (
	"math/rand/v2"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"fastppr/internal/gen"
	"fastppr/internal/graph"
	"fastppr/internal/salsa"
	"fastppr/internal/socialstore"
)

func newServer(t *testing.T, n, m int, cfg salsa.Config, scfg Config) (*Server, []graph.Edge) {
	t.Helper()
	rng := rand.New(rand.NewPCG(cfg.Seed, 99))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i))
	}
	mt := salsa.New(socialstore.New(g), cfg)
	s := New(mt, scfg)
	storm := gen.DirichletStream(n, m, rng)
	mt.Bootstrap()
	s.ApplyEdges(storm[:m/2])
	return s, storm[m/2:]
}

// sameQuery compares two served query results bitwise: full authority and
// hub distributions plus the cost accounting that is a function of (store
// state, source, stream).
func sameQuery(a, b *salsa.Query) bool {
	as, bs := a.Stats(), b.Stats()
	return reflect.DeepEqual(a.AuthorityAll(), b.AuthorityAll()) &&
		as.Steps == bs.Steps && as.BareSteps == bs.BareSteps &&
		as.StitchedSegments == bs.StitchedSegments &&
		as.StitchedSteps == bs.StitchedSteps &&
		as.StoreCalls == bs.StoreCalls &&
		as.Stream == bs.Stream && as.StripeMask == bs.StripeMask
}

// TestHitIsBitwiseRecompute is the tentpole's serialized correctness bar:
// with the store quiet, a cache hit must be byte-identical to a fresh
// recompute at the same epoch (same stream), cost exactly 0 store calls,
// and survive arrivals that miss its stripe mask while dying on ones that
// hit it. Table-driven over seeds and store shapes.
func TestHitIsBitwiseRecompute(t *testing.T) {
	cases := []struct {
		name string
		cfg  salsa.Config
	}{
		{"fastpath", salsa.Config{Eps: 0.2, R: 6, Workers: 1, Seed: 41, QueryWalks: 128}},
		{"seed42", salsa.Config{Eps: 0.2, R: 6, Workers: 1, Seed: 42, QueryWalks: 128}},
		{"eps0.25-r4-q96", salsa.Config{Eps: 0.25, R: 4, Workers: 1, Seed: 43, QueryWalks: 96}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, storm := newServer(t, 200, 1200, tc.cfg, Config{})
			mt := s.Maintainer()
			for _, src := range []graph.NodeID{0, 7, 100, 199} {
				cold := s.Personalized(src)
				if cold.Hit {
					t.Fatalf("source %d: first lookup hit", src)
				}
				hit := s.Personalized(src)
				if !hit.Hit {
					t.Fatalf("source %d: second lookup missed a quiet store", src)
				}
				if hit.StoreCalls != 0 {
					t.Fatalf("source %d: hit cost %d store calls, want 0", src, hit.StoreCalls)
				}
				if hit.Query != cold.Query {
					t.Fatalf("source %d: hit returned a different query object", src)
				}
				// The recompute contract: same stream, same store, same bytes.
				fresh := mt.PersonalizedStream(src, hit.Stream)
				if !sameQuery(hit.Query, fresh) {
					t.Fatalf("source %d: hit diverges from recompute on stream %#x", src, hit.Stream)
				}
			}
			// A storm invalidates what it touches; served results afterwards
			// must again match fresh recomputes.
			s.ApplyEdges(storm)
			for _, src := range []graph.NodeID{0, 7, 100, 199} {
				res := s.Personalized(src)
				fresh := mt.PersonalizedStream(src, res.Stream)
				if !sameQuery(res.Query, fresh) {
					t.Fatalf("source %d post-storm: served result diverges from recompute", src)
				}
			}
			if err := mt.Store().Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStalenessFuzz randomly interleaves churn — arrivals AND deletions —
// with served queries (serialized, so the check can be exact): every served
// result — hit or miss — must be bitwise identical to a fresh recompute on
// its stream at the moment it was served, and the run must actually
// exercise hits, invalidations, and deletions.
func TestStalenessFuzz(t *testing.T) {
	n, m, iters := 150, 2000, 400
	if testing.Short() {
		n, m, iters = 80, 800, 120
	}
	cfg := salsa.Config{Eps: 0.2, R: 5, Workers: 1, Seed: 57, QueryWalks: 64}
	s, storm := newServer(t, n, m, cfg, Config{})
	mt := s.Maintainer()
	// Fold the remaining arrivals into a shrink-grow churn stream so the
	// racing mutations include edge deletions, not just growth.
	events := gen.ShrinkGrowStream(storm, 5, 0.3, rand.New(rand.NewPCG(59, 0)))
	rng := rand.New(rand.NewPCG(58, 0))
	next := 0
	for it := 0; it < iters; it++ {
		if rng.IntN(3) == 0 && next < len(events) {
			// A small burst of churn.
			k := min(1+rng.IntN(8), len(events)-next)
			s.ApplyEvents(events[next : next+k])
			next += k
			continue
		}
		// Hot-spot query mix so repeats are common enough to hit.
		src := graph.NodeID(rng.IntN(10))
		if rng.IntN(4) == 0 {
			src = graph.NodeID(rng.IntN(n))
		}
		res := s.Personalized(src)
		if !sameQuery(res.Query, mt.PersonalizedStream(src, res.Stream)) {
			t.Fatalf("iter %d: served result for %d (hit=%v) diverges from recompute", it, src, res.Hit)
		}
	}
	st := s.Stats()
	if st.Hits == 0 {
		t.Fatalf("fuzz run never hit the cache: %+v", st)
	}
	if st.Misses == 0 || st.Invalidated == 0 {
		t.Fatalf("fuzz run did not exercise invalidation: %+v", st)
	}
	cnt := mt.Counters()
	if cnt.Deletions == 0 {
		t.Fatalf("fuzz run applied no deletions: %+v", cnt)
	}
	if cnt.DelMisses != 0 {
		t.Fatalf("serialized shrink-grow stream missed %d deletions", cnt.DelMisses)
	}
	if err := mt.Store().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDeletionInvalidatesOverlappingCache is the deterministic deletion
// staleness law: a cached result whose stripe mask overlaps a deletion's
// endpoints must miss, while deletions whose endpoints land wholly outside
// the mask — and DelMiss no-ops — must leave the hit intact. Two disjoint
// 3-cycles on node IDs chosen so one lives entirely in stripe 0 and the
// other entirely in stripe 1 (stripes key on the ID's low six bits).
func TestDeletionInvalidatesOverlappingCache(t *testing.T) {
	g := graph.New(130)
	compA := []graph.NodeID{0, 64, 128} // all stripe 0
	compB := []graph.NodeID{1, 65, 129} // all stripe 1
	for _, v := range append(append([]graph.NodeID{}, compA...), compB...) {
		g.AddNode(v)
	}
	cfg := salsa.Config{Eps: 0.2, R: 8, Workers: 1, Seed: 101, QueryWalks: 64}
	mt := salsa.New(socialstore.New(g), cfg)
	s := New(mt, Config{})
	mt.Bootstrap()
	for _, comp := range [][]graph.NodeID{compA, compB} {
		for i, u := range comp {
			v := comp[(i+1)%len(comp)]
			s.ApplyEdge(graph.Edge{From: u, To: v})
			s.ApplyEdge(graph.Edge{From: v, To: u})
		}
	}

	cold := s.Personalized(0)
	if cold.Hit {
		t.Fatal("cold lookup hit")
	}
	mask := cold.Query.Stats().StripeMask
	if mask&1 == 0 || mask&2 != 0 {
		t.Fatalf("component-A query mask %#x should cover stripe 0 and not stripe 1", mask)
	}

	// A deletion entirely outside the mask must not invalidate.
	s.ApplyDeletion(graph.Edge{From: 1, To: 65})
	if res := s.Personalized(0); !res.Hit {
		t.Fatal("deletion outside the stripe mask invalidated the cache")
	}
	// A DelMiss touching a masked stripe mutates nothing: still a hit.
	s.ApplyDeletion(graph.Edge{From: 0, To: 3})
	if res := s.Personalized(0); !res.Hit {
		t.Fatal("DelMiss no-op invalidated the cache")
	}
	// A live deletion overlapping the mask must kill the entry.
	s.ApplyDeletion(graph.Edge{From: 0, To: 64})
	res := s.Personalized(0)
	if res.Hit {
		t.Fatal("cached result survived a deletion inside its stripe mask")
	}
	if !sameQuery(res.Query, mt.PersonalizedStream(0, res.Stream)) {
		t.Fatal("post-deletion recompute diverges from fresh recompute on its stream")
	}
	st := s.Stats()
	if st.Invalidated == 0 {
		t.Fatalf("overlapping deletion not accounted as invalidation: %+v", st)
	}
	cnt := mt.Counters()
	if cnt.Deletions != 3 || cnt.DelMisses != 1 {
		t.Fatalf("deletion accounting: %+v, want 3 deletions / 1 miss", cnt)
	}
	if err := mt.Store().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestServeRacingStorm is the -race stress: queriers hammer a hot-spot
// source mix while a churn storm applies arrivals and deletions
// concurrently. Asserted: clean Validate at the end, hit accounting
// consistent, every hit's query object still internally coherent
// (scores sum to ~1).
func TestServeRacingStorm(t *testing.T) {
	n, m := 150, 3000
	queriers, perQ := 3, 60
	if testing.Short() {
		m, perQ = 1200, 25
	}
	cfg := salsa.Config{Eps: 0.2, R: 5, Workers: 1, Seed: 61, QueryWalks: 64}
	s, storm := newServer(t, n, m, cfg, Config{})
	events := gen.ShrinkGrowStream(storm, 4, 0.25, rand.New(rand.NewPCG(62, 0)))
	var wg sync.WaitGroup
	var served atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.ApplyEvents(events)
	}()
	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 7))
			for i := 0; i < perQ; i++ {
				src := graph.NodeID(rng.IntN(12))
				res := s.Personalized(src)
				if res.Query == nil {
					t.Error("nil query served")
					return
				}
				if res.Hit && res.StoreCalls != 0 {
					t.Errorf("hit charged %d store calls", res.StoreCalls)
					return
				}
				st, items := res.Query.Stats(), res.Query.TopK(5)
				if st.Source != src || (len(items) > 0 && items[0].Score <= 0) {
					t.Errorf("incoherent served query for %d: %+v", src, st)
					return
				}
				served.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if served.Load() != int64(queriers*perQ) {
		t.Fatalf("served %d of %d", served.Load(), queriers*perQ)
	}
	stats := s.Stats()
	if stats.Hits+stats.Misses+stats.Coalesced != served.Load() {
		t.Fatalf("serving accounting leaks: %+v vs %d served", stats, served.Load())
	}
	if err := s.Maintainer().Store().Validate(); err != nil {
		t.Fatal(err)
	}
	if cnt := s.Maintainer().Counters(); cnt.Deletions == 0 {
		t.Fatalf("racing storm applied no deletions: %+v", cnt)
	}
	// Quiet now: every source must be servable and bitwise-checkable again.
	res := s.Personalized(3)
	if !sameQuery(res.Query, s.Maintainer().PersonalizedStream(3, res.Stream)) {
		t.Fatal("post-storm served result diverges from recompute")
	}
}

// TestSingleflightCoalesces pins the batching semantics: concurrent
// same-source lookups on a cold cache share one compute — exactly one
// miss, everyone else coalesced onto the leader's snapshot and session —
// and all receive the identical query object.
func TestSingleflightCoalesces(t *testing.T) {
	cfg := salsa.Config{Eps: 0.2, R: 5, Workers: 1, Seed: 71, QueryWalks: 256}
	s, _ := newServer(t, 100, 600, cfg, Config{})
	const callers = 8
	var wg sync.WaitGroup
	results := make([]*Result, callers)
	var start sync.WaitGroup
	start.Add(1)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			results[i] = s.Personalized(42)
		}(i)
	}
	start.Done()
	wg.Wait()
	st := s.Stats()
	if st.Misses != 1 {
		t.Fatalf("%d misses for one cold source, want 1 (stats %+v)", st.Misses, st)
	}
	if st.Hits+st.Coalesced != callers-1 {
		t.Fatalf("followers = %d hits + %d coalesced, want %d total", st.Hits, st.Coalesced, callers-1)
	}
	var totalCalls int64
	for i, r := range results {
		if r.Query != results[0].Query {
			t.Fatalf("caller %d got a different query object", i)
		}
		totalCalls += r.StoreCalls
	}
	if want := results[0].Query.Stats().StoreCalls; totalCalls != want {
		t.Fatalf("burst charged %d store calls, want the one compute's %d", totalCalls, want)
	}
}

// TestEvictionLRU pins the cap: filling the cache past MaxEntries evicts
// the least recently used source, and touching an entry protects it.
func TestEvictionLRU(t *testing.T) {
	cfg := salsa.Config{Eps: 0.2, R: 4, Workers: 1, Seed: 77, QueryWalks: 32}
	s, _ := newServer(t, 100, 600, cfg, Config{MaxEntries: 3})
	s.Personalized(1)
	s.Personalized(2)
	s.Personalized(3)
	s.Personalized(1) // refresh 1: now 2 is the LRU
	s.Personalized(4) // evicts 2
	st := s.Stats()
	if st.Entries != 3 || st.Evicted != 1 {
		t.Fatalf("after overflow: %+v, want 3 entries / 1 evicted", st)
	}
	if res := s.Personalized(1); !res.Hit {
		t.Fatal("recently used entry was evicted")
	}
	if res := s.Personalized(2); res.Hit {
		t.Fatal("LRU entry survived the cap")
	}
}

// TestTopKStreamAndMany covers the streaming iterator (descending, equal to
// the eager TopK prefix) and the batch entry point (duplicates hit).
func TestTopKStreamAndMany(t *testing.T) {
	cfg := salsa.Config{Eps: 0.2, R: 5, Workers: 1, Seed: 83, QueryWalks: 128}
	s, _ := newServer(t, 100, 800, cfg, Config{})
	items, res := s.PersonalizedTopK(9, 5)
	stream, res2 := s.TopKStream(9)
	if !res2.Hit {
		t.Fatal("TopKStream after PersonalizedTopK should hit")
	}
	_ = res
	for i, want := range items {
		got, ok := stream.Next()
		if !ok || got != want {
			t.Fatalf("stream[%d]=%+v ok=%v, eager TopK says %+v", i, got, ok, want)
		}
	}
	burst := []graph.NodeID{5, 6, 5, 5, 6}
	out := s.PersonalizedMany(burst)
	if len(out) != len(burst) {
		t.Fatalf("PersonalizedMany returned %d results for %d sources", len(out), len(burst))
	}
	if !out[2].Hit || !out[3].Hit || !out[4].Hit {
		t.Fatal("duplicate sources in a burst did not hit")
	}
	if out[2].Query != out[0].Query {
		t.Fatal("duplicate sources served different query objects")
	}
}

// TestInvalidateDrops pins the manual invalidation hook.
func TestInvalidateDrops(t *testing.T) {
	cfg := salsa.Config{Eps: 0.2, R: 4, Workers: 1, Seed: 87, QueryWalks: 32}
	s, _ := newServer(t, 50, 300, cfg, Config{})
	s.Personalized(5)
	s.Invalidate(5)
	if res := s.Personalized(5); res.Hit {
		t.Fatal("lookup hit an invalidated entry")
	}
	if st := s.Stats(); st.Invalidated != 1 {
		t.Fatalf("Invalidated=%d want 1", st.Invalidated)
	}
}
