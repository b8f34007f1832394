package walk

import (
	"math/rand/v2"
	"slices"
	"testing"

	"fastppr/internal/graph"
)

// TestRecorderNotesWatchedSteps pins the orientation the straggler sweep
// relies on: an out-sample v -> w is recorded as the edge (v, w), an
// in-sample (a backward step from v to w) as (w, v), the edge it traversed;
// a step on an unwatched edge is never recorded, and the samples themselves
// are exactly the inner Neighborer's.
func TestRecorderNotesWatchedSteps(t *testing.T) {
	g := graph.New(0)
	g.AddEdge(1, 2) // watched
	g.AddEdge(3, 1) // watched
	g.AddEdge(2, 3) // unwatched
	watch := NewEdgeSet([]graph.Edge{{From: 1, To: 2}, {From: 3, To: 1}, {From: 9, To: 9}})
	r := NewRecorder(g, watch)
	rng, ref := rand.New(rand.NewPCG(5, 0)), rand.New(rand.NewPCG(5, 0))

	for _, v := range []graph.NodeID{1, 2, 4} {
		w, ok := r.RandomOutNeighbor(v, rng)
		ww, wok := g.RandomOutNeighbor(v, ref)
		if w != ww || ok != wok {
			t.Fatalf("RandomOutNeighbor(%d) = (%d, %v), inner says (%d, %v)", v, w, ok, ww, wok)
		}
	}
	for _, v := range []graph.NodeID{1, 3, 4} {
		w, ok := r.RandomInNeighbor(v, rng)
		ww, wok := g.RandomInNeighbor(v, ref)
		if w != ww || ok != wok {
			t.Fatalf("RandomInNeighbor(%d) = (%d, %v), inner says (%d, %v)", v, w, ok, ww, wok)
		}
	}
	// Out from 1 stepped 1 -> 2; in at 1 stepped back along 3 -> 1. The out
	// step 2 -> 3 and the in step back along 2 -> 3 are unwatched; node 4 has
	// no edges at all.
	want := []graph.Edge{{From: 1, To: 2}, {From: 3, To: 1}}
	if got := Distinct([]*Recorder{r}); !slices.Equal(got, want) {
		t.Fatalf("recorded %v, want %v", got, want)
	}
}

// TestDistinctMergesRecorders checks that the sweep's suspect list is every
// recorded edge once, in ascending (From, To) order, whichever recorder saw
// it and however often.
func TestDistinctMergesRecorders(t *testing.T) {
	g := graph.New(0)
	for _, e := range [][2]graph.NodeID{{5, 1}, {1, 5}, {2, 7}} {
		g.AddEdge(e[0], e[1])
	}
	watch := NewEdgeSet([]graph.Edge{{From: 5, To: 1}, {From: 1, To: 5}, {From: 2, To: 7}})
	rng := rand.New(rand.NewPCG(6, 0))
	a, b := NewRecorder(g, watch), NewRecorder(g, watch)
	a.RandomOutNeighbor(5, rng)
	a.RandomOutNeighbor(5, rng)
	a.RandomInNeighbor(5, rng) // traverses 1 -> 5
	b.RandomOutNeighbor(5, rng)
	b.RandomOutNeighbor(2, rng)
	got := Distinct([]*Recorder{a, nil, b})
	want := []graph.Edge{{From: 1, To: 5}, {From: 2, To: 7}, {From: 5, To: 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("Distinct = %v, want %v", got, want)
	}
	if got := Distinct([]*Recorder{nil, NewRecorder(g, nil)}); len(got) != 0 {
		t.Fatalf("Distinct of empty recorders = %v", got)
	}
}

// TestRecorderAllocFree: with an empty watch set the recorder is a pass-through
// and allocates nothing per sample, and neither does a watched set the walk
// never steps on.
func TestRecorderAllocFree(t *testing.T) {
	g := cycle(32)
	rng := rand.New(rand.NewPCG(7, 0))
	for _, watch := range []EdgeSet{nil, NewEdgeSet([]graph.Edge{{From: 100, To: 101}})} {
		r := NewRecorder(g, watch)
		var buf []graph.NodeID
		buf = AppendContinue(r, 0, 0.01, rng, buf) // grow buf outside the measurement
		allocs := testing.AllocsPerRun(200, func() {
			buf = AppendContinue(r, graph.NodeID(rng.IntN(32)), 0.2, rng, buf[:0])
			r.RandomInNeighbor(graph.NodeID(rng.IntN(32)), rng)
		})
		if allocs != 0 {
			t.Fatalf("watch of %d edges: %v allocations per sampled walk, want 0", len(watch), allocs)
		}
		if got := Distinct([]*Recorder{r}); len(got) != 0 {
			t.Fatalf("recorded %v on unwatched edges", got)
		}
	}
}
