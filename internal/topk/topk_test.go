package topk

import (
	"math/rand/v2"
	"testing"

	"fastppr/internal/graph"
)

func TestDescendingOrderAndTieBreak(t *testing.T) {
	c := New(4)
	c.Offer(5, 1.0)
	c.Offer(3, 2.0)
	c.Offer(9, 2.0) // tie with node 3 — lower ID must rank first
	c.Offer(1, 0.5)
	c.Offer(7, 3.0)
	items := c.Items()
	if len(items) != 4 {
		t.Fatalf("got %d items, want 4", len(items))
	}
	wantNodes := []graph.NodeID{7, 3, 9, 5}
	wantScores := []float64{3.0, 2.0, 2.0, 1.0}
	for i := range items {
		if items[i].Node != wantNodes[i] || items[i].Score != wantScores[i] {
			t.Fatalf("items[%d]=%+v, want node=%d score=%g (all: %+v)",
				i, items[i], wantNodes[i], wantScores[i], items)
		}
	}
	// Node 1 (score 0.5) must have been evicted.
	for _, it := range items {
		if it.Node == 1 {
			t.Fatal("lowest score survived a full collector")
		}
	}
}

func TestTieEvictionPrefersLowerIDs(t *testing.T) {
	// All scores equal: the k kept entries must be the k lowest IDs.
	c := New(3)
	for _, n := range []graph.NodeID{10, 2, 7, 4, 9, 1} {
		c.Offer(n, 1.0)
	}
	items := c.Items()
	want := []graph.NodeID{1, 2, 4}
	for i := range want {
		if items[i].Node != want[i] {
			t.Fatalf("items=%+v, want nodes %v", items, want)
		}
	}
}

func TestStreamMatchesTopKPrefix(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 0))
	scores := make(map[graph.NodeID]float64, 300)
	for i := 0; i < 300; i++ {
		scores[graph.NodeID(i)] = float64(rng.IntN(40)) // many ties
	}
	// Draining the stream must reproduce the full sorted ranking: every
	// prefix of the drain equals TopK at that k.
	full := TopK(scores, len(scores))
	st := NewStream(scores)
	if st.Len() != len(scores) {
		t.Fatalf("fresh stream Len=%d want %d", st.Len(), len(scores))
	}
	for i, want := range full {
		it, ok := st.Next()
		if !ok {
			t.Fatalf("stream dried up at %d of %d", i, len(full))
		}
		if it != want {
			t.Fatalf("stream[%d]=%+v, TopK says %+v", i, it, want)
		}
	}
	if _, ok := st.Next(); ok || st.Len() != 0 {
		t.Fatal("stream yielded past exhaustion")
	}

	// Early termination: taking only three items must not have required the
	// rest — pinned by Len after construction plus Next count.
	st2 := NewStream(scores)
	for i := 0; i < 3; i++ {
		st2.Next()
	}
	if st2.Len() != len(scores)-3 {
		t.Fatalf("after 3 Next calls Len=%d want %d", st2.Len(), len(scores)-3)
	}
}

func TestStreamEmpty(t *testing.T) {
	st := NewStream(nil)
	if it, ok := st.Next(); ok {
		t.Fatalf("empty stream yielded %+v", it)
	}
}

func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 0))
	scores := make(map[graph.NodeID]float64, 200)
	for i := 0; i < 200; i++ {
		scores[graph.NodeID(i)] = float64(rng.IntN(50)) // many ties
	}
	got := TopK(scores, 10)
	if len(got) != 10 {
		t.Fatalf("TopK returned %d items", len(got))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.Score < b.Score {
			t.Fatalf("not descending at %d: %+v", i, got)
		}
		if a.Score == b.Score && a.Node > b.Node {
			t.Fatalf("tie not broken toward lower IDs at %d: %+v", i, got)
		}
	}
	// Nothing outside the result may beat the last kept item.
	last := got[len(got)-1]
	kept := map[graph.NodeID]bool{}
	for _, it := range got {
		kept[it.Node] = true
	}
	for v, s := range scores {
		if kept[v] {
			continue
		}
		if s > last.Score || (s == last.Score && v < last.Node) {
			t.Fatalf("node %d (score %g) should have displaced %+v", v, s, last)
		}
	}
}

// TestTopKSharesMatchesTopK pins the streamed form: ranking raw counts and
// dividing the survivors must give bit-identical scores and order to ranking
// the normalized score map, ties and k beyond the stream included.
func TestTopKSharesMatchesTopK(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 0))
	counts := make(map[graph.NodeID]int64, 300)
	var total int64
	for i := 0; i < 300; i++ {
		x := int64(1 + rng.IntN(40)) // many ties
		counts[graph.NodeID(i)] = x
		total += x
	}
	scores := make(map[graph.NodeID]float64, len(counts))
	for v, x := range counts {
		scores[v] = float64(x) / float64(total)
	}
	each := func(yield func(graph.NodeID, int64)) {
		for v, x := range counts {
			yield(v, x)
		}
	}
	for _, k := range []int{1, 25, 1000} {
		got, want := TopKShares(k, each), TopK(scores, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d items, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d item %d: %+v, want %+v", k, i, got[i], want[i])
			}
		}
	}
	if got := TopKShares(5, func(func(graph.NodeID, int64)) {}); len(got) != 0 {
		t.Fatalf("empty stream ranked %d items", len(got))
	}
}

// TestTopKSharesAllocs holds TopKShares to a fixed allocation count whatever
// the stream length: the collector sifts its slice in place, so offering an
// item boxes nothing (through container/heap, 5,000 counts at k = 100 cost
// 105 allocations, one per item pushed).
func TestTopKSharesAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 0))
	counts := make([]int64, 5000)
	for i := range counts {
		counts[i] = int64(1 + rng.IntN(1000))
	}
	each := func(yield func(graph.NodeID, int64)) {
		for v, x := range counts {
			yield(graph.NodeID(v), x)
		}
	}
	if got := testing.AllocsPerRun(20, func() { TopKShares(100, each) }); got > 3 {
		t.Fatalf("TopKShares over %d counts, k=100: %v allocations, want at most 3", len(counts), got)
	}
}
