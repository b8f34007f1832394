package walkstore

import (
	"math/rand/v2"
	"sync"
	"testing"

	"fastppr/internal/graph"
)

// TestEpochCountsMutations pins the epoch stamp: one tick per completed
// Add/ReplaceTail/Remove (batch adds tick once per segment), none for reads
// or no-op replaces.
func TestEpochCountsMutations(t *testing.T) {
	s := New()
	if s.Epoch() != 0 {
		t.Fatalf("fresh store epoch=%d", s.Epoch())
	}
	id := s.Add(path(1, 2, 3))
	s.AddBatch([][]graph.NodeID{path(4), path(5, 6)})
	if got := s.Epoch(); got != 3 {
		t.Fatalf("epoch=%d want 3 after three adds", got)
	}
	s.Path(id)
	s.Visits(2)
	s.ReplaceTail(id, 3, nil) // no-op
	if got := s.Epoch(); got != 3 {
		t.Fatalf("epoch=%d want 3 after reads and a no-op replace", got)
	}
	s.ReplaceTail(id, 1, path(9))
	s.Remove(id)
	if got := s.Epoch(); got != 5 {
		t.Fatalf("epoch=%d want 5 after replace+remove", got)
	}
}

// TestStripedCountersCrossCheck spreads segments over many nodes (so every
// counter stripe is populated), then checks the per-stripe shares via
// Validate and the striped read paths against a brute-force recount.
func TestStripedCountersCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	s := New()
	wantVisits := map[graph.NodeID]int64{}
	var wantTotal int64
	const segs = 500
	for i := 0; i < segs; i++ {
		n := 1 + rng.IntN(8)
		p := make([]graph.NodeID, n)
		for j := range p {
			p[j] = graph.NodeID(rng.IntN(1000))
		}
		s.Add(p)
		for _, v := range p {
			wantVisits[v]++
			wantTotal++
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.TotalVisits(); got != wantTotal {
		t.Fatalf("TotalVisits=%d want %d", got, wantTotal)
	}
	counts := s.VisitCounts()
	if len(counts) != len(wantVisits) {
		t.Fatalf("VisitCounts has %d nodes, want %d", len(counts), len(wantVisits))
	}
	for v, x := range wantVisits {
		if counts[v] != x {
			t.Fatalf("VisitCounts[%d]=%d want %d", v, counts[v], x)
		}
		if got := s.Visits(v); got != x {
			t.Fatalf("Visits(%d)=%d want %d", v, got, x)
		}
		visits, total := s.VisitFraction(v)
		if visits != x || total != wantTotal {
			t.Fatalf("VisitFraction(%d)=(%d,%d) want (%d,%d)", v, visits, total, x, wantTotal)
		}
	}
}

// TestConcurrentMutatorsAndReaders is the -race stress for the striped
// store: goroutines mutate disjoint segment sets (the external per-segment
// serialization contract) while readers hammer every read path, and the
// final state must pass the full per-stripe Validate.
func TestConcurrentMutatorsAndReaders(t *testing.T) {
	const (
		writers     = 4
		segsPer     = 40
		iters       = 300
		nodeSpace   = 256
		readerIters = 2000
	)
	s := New()
	owned := make([][]SegmentID, writers)
	for w := 0; w < writers; w++ {
		for i := 0; i < segsPer; i++ {
			owned[w] = append(owned[w], s.Add(path(int64(w*nodeSpace+i%nodeSpace), int64(i%nodeSpace))))
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 1))
			for it := 0; it < iters; it++ {
				id := owned[w][rng.IntN(len(owned[w]))]
				n := len(s.Path(id))
				keep := 1 + rng.IntN(n)
				tail := make([]graph.NodeID, rng.IntN(5))
				for j := range tail {
					tail[j] = graph.NodeID(rng.IntN(nodeSpace))
				}
				s.ReplaceTail(id, keep, tail)
				if rng.IntN(10) == 0 {
					p := make([]graph.NodeID, 1+rng.IntN(4))
					for j := range p {
						p[j] = graph.NodeID(rng.IntN(nodeSpace))
					}
					owned[w] = append(owned[w], s.Add(p))
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(r), 2))
			for it := 0; it < readerIters; it++ {
				select {
				case <-stop:
					return
				default:
				}
				v := graph.NodeID(rng.IntN(nodeSpace))
				_ = s.Visits(v)
				_ = s.Terminals(v)
				_ = s.Candidates(v)
				_, _ = s.VisitFraction(v)
				_ = s.Visitors(v)
				_ = s.OwnedBy(v)
				_ = s.TotalVisits()
				_ = s.Epoch()
				for _, id := range s.Visitors(v) {
					p := s.Path(id)
					if len(p) == 0 {
						t.Error("empty path observed")
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSidedMutators runs the same stress over sided segments so
// the per-side stripe counters and sided terminals get the -race treatment,
// ending in a Validate cross-check of the per-stripe sided shares.
func TestConcurrentSidedMutators(t *testing.T) {
	const writers = 4
	s := New()
	owned := make([][]SegmentID, writers)
	for w := 0; w < writers; w++ {
		for i := 0; i < 30; i++ {
			side := Side(i % 2)
			owned[w] = append(owned[w], s.AddSided(path(int64(w*100+i), int64(i), int64(w)), side))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 3))
			for it := 0; it < 400; it++ {
				id := owned[w][rng.IntN(len(owned[w]))]
				n := len(s.Path(id))
				keep := 1 + rng.IntN(n)
				tail := make([]graph.NodeID, rng.IntN(4))
				for j := range tail {
					tail[j] = graph.NodeID(rng.IntN(64))
				}
				s.ReplaceTail(id, keep, tail)
				v := graph.NodeID(rng.IntN(64))
				_ = s.PendingVisits(v, SideForward)
				_ = s.PendingCandidates(v, SideBackward)
				_ = s.PendingTerminals(v, SideForward)
				_, _ = s.PendingVisitFraction(v, SideBackward)
				_, _ = s.PendingVisitFraction(v, SideForward)
			}
		}(w)
	}
	wg.Wait()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// The side totals must agree between the atomic globals and the
	// per-stripe table walk.
	for d := SideForward; d <= SideBackward; d++ {
		var sum int64
		s.EachPendingVisitCount(d, func(_ graph.NodeID, x int64) { sum += x })
		if _, total := s.PendingVisitFraction(0, d); sum != total {
			t.Fatalf("side %d: table walk sums to %d, atomic total %d", d, sum, total)
		}
	}
}
