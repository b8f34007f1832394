package walkstore

import (
	"math/rand/v2"
	"slices"
	"testing"

	"fastppr/internal/graph"
)

func path(ids ...int64) []graph.NodeID {
	p := make([]graph.NodeID, len(ids))
	for i, x := range ids {
		p[i] = graph.NodeID(x)
	}
	return p
}

func TestAddReplaceRemove(t *testing.T) {
	s := New()
	a := s.Add(path(1, 2, 3, 2))
	b := s.Add(path(2, 3))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.Visits(2); got != 3 {
		t.Fatalf("Visits(2)=%d want 3", got)
	}
	if got := len(s.Visitors(2)); got != 2 {
		t.Fatalf("W(2)=%d want 2", got)
	}
	if got := s.TotalVisits(); got != 6 {
		t.Fatalf("TotalVisits=%d want 6", got)
	}
	if got := s.OwnedBy(1); !slices.Equal(got, []SegmentID{a}) {
		t.Fatalf("OwnedBy(1)=%v want [%d]", got, a)
	}

	removed, added := s.ReplaceTail(a, 2, path(5, 6))
	if removed != 2 || added != 2 {
		t.Fatalf("ReplaceTail removed=%d added=%d want 2,2", removed, added)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.Path(a); !slices.Equal(got, path(1, 2, 5, 6)) {
		t.Fatalf("Path(a)=%v want [1 2 5 6]", got)
	}
	// No-op replace.
	removed, added = s.ReplaceTail(a, 4, nil)
	if removed != 0 || added != 0 {
		t.Fatalf("no-op ReplaceTail did work: %d,%d", removed, added)
	}

	s.Remove(a)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.NumSegments(); got != 1 {
		t.Fatalf("NumSegments=%d want 1", got)
	}
	if got := s.Visitors(2); !slices.Equal(got, []SegmentID{b}) {
		t.Fatalf("Visitors(2)=%v want [%d]", got, b)
	}
	s.Remove(b)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.TotalVisits(); got != 0 {
		t.Fatalf("TotalVisits=%d want 0 after removing everything", got)
	}
}

// TestPathStableAcrossReplaceTail pins the aliasing fix: a slice returned by
// Path must keep its contents after ReplaceTail rewrites the segment.
func TestPathStableAcrossReplaceTail(t *testing.T) {
	s := New()
	id := s.Add(path(10, 20, 30, 40))
	old := s.Path(id)
	snapshot := append([]graph.NodeID(nil), old...)

	// Truncate-and-extend, the exact shape that used to mutate old in place.
	s.ReplaceTail(id, 2, path(99, 98, 97))
	if !slices.Equal(old, snapshot) {
		t.Fatalf("old Path slice mutated by ReplaceTail: %v want %v", old, snapshot)
	}
	// Drive many more mutations to force arena regrowth; the old window
	// must still be intact.
	for i := 0; i < 1000; i++ {
		s.ReplaceTail(id, 1, path(int64(i), int64(i+1), int64(i+2)))
	}
	if !slices.Equal(old, snapshot) {
		t.Fatalf("old Path slice mutated after arena growth: %v want %v", old, snapshot)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPathCapClamped ensures a caller appending to a Path result cannot
// stomp arena bytes owned by another segment.
func TestPathCapClamped(t *testing.T) {
	s := New()
	a := s.Add(path(1, 2))
	b := s.Add(path(3, 4))
	pa := s.Path(a)
	_ = append(pa, 777) // must reallocate, not write into b's window
	if got := s.Path(b); !slices.Equal(got, path(3, 4)) {
		t.Fatalf("segment b corrupted by append to a's path: %v", got)
	}
}

// TestHubVisitorSet grows one node's bucket to 768 entries and back down.
func TestHubVisitorSet(t *testing.T) {
	const n = 256
	s := New()
	var ids []SegmentID
	for i := 0; i < 3*n; i++ {
		ids = append(ids, s.Add(path(7, int64(1000+i))))
	}
	if got := len(s.Visitors(7)); got != 3*n {
		t.Fatalf("W(7)=%d want %d", got, 3*n)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[:2*n] {
		s.Remove(id)
	}
	if got := len(s.Visitors(7)); got != n {
		t.Fatalf("W(7)=%d want %d", got, n)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddBatch(t *testing.T) {
	s := New()
	ids := s.AddBatch([][]graph.NodeID{path(1, 2), path(2), path(3, 1, 2)})
	if len(ids) != 3 {
		t.Fatalf("AddBatch returned %d ids", len(ids))
	}
	if got := s.NumSegments(); got != 3 {
		t.Fatalf("NumSegments=%d want 3", got)
	}
	if got := s.Path(ids[2]); !slices.Equal(got, path(3, 1, 2)) {
		t.Fatalf("Path=%v want [3 1 2]", got)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzAgainstValidate drives randomized Add/ReplaceTail/Remove and
// checks every store invariant after each mutation — the acceptance
// criterion for the arena layout.
func TestFuzzAgainstValidate(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	s := New()
	var live []SegmentID
	randPath := func() []graph.NodeID {
		n := 1 + rng.IntN(6)
		p := make([]graph.NodeID, n)
		for i := range p {
			p[i] = graph.NodeID(rng.IntN(20)) // heavy ID reuse to stress visitor sets
		}
		return p
	}
	const ops = 2500
	for op := 0; op < ops; op++ {
		switch k := rng.IntN(10); {
		case k < 4 || len(live) == 0:
			live = append(live, s.Add(randPath()))
		case k < 8:
			i := rng.IntN(len(live))
			id := live[i]
			n := len(s.Path(id))
			keep := 1 + rng.IntN(n)
			var tail []graph.NodeID
			if rng.IntN(4) > 0 {
				tail = randPath()
			}
			s.ReplaceTail(id, keep, tail)
		default:
			i := rng.IntN(len(live))
			s.Remove(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	liveNodes, total := s.ArenaStats()
	if liveNodes > total {
		t.Fatalf("ArenaStats live=%d > total=%d", liveNodes, total)
	}
}

func TestPanicsOnBadUse(t *testing.T) {
	s := New()
	id := s.Add(path(1, 2))
	s.Remove(id)
	mustPanic(t, "Path of removed segment", func() { s.Path(id) })
	mustPanic(t, "double Remove", func() { s.Remove(id) })
	mustPanic(t, "empty Add", func() { s.Add(nil) })
	id2 := s.Add(path(3))
	mustPanic(t, "ReplaceTail keep=0", func() { s.ReplaceTail(id2, 0, nil) })
	mustPanic(t, "ReplaceTail keep too large", func() { s.ReplaceTail(id2, 2, nil) })
}

// TestTerminalsAndCandidates pins the T(v) counter and the derived
// candidate count X_v - T(v) that the incremental maintainer's skip coin
// exponentiates, across every mutation path.
func TestTerminalsAndCandidates(t *testing.T) {
	s := New()
	a := s.Add(path(1, 2, 3))
	b := s.Add(path(2, 3))
	c := s.Add(path(3))
	if got := s.Terminals(3); got != 3 {
		t.Fatalf("Terminals(3)=%d want 3", got)
	}
	if got := s.Candidates(3); got != 0 {
		t.Fatalf("Candidates(3)=%d want 0 (all visits terminal)", got)
	}
	if got := s.Candidates(2); got != 2 {
		t.Fatalf("Candidates(2)=%d want 2", got)
	}

	// ReplaceTail moves the terminal from 3 to 9.
	s.ReplaceTail(a, 2, path(9))
	if got := s.Terminals(3); got != 2 {
		t.Fatalf("Terminals(3)=%d want 2 after ReplaceTail", got)
	}
	if got := s.Terminals(9); got != 1 {
		t.Fatalf("Terminals(9)=%d want 1", got)
	}
	// Pure truncation: the kept prefix's last node becomes terminal.
	s.ReplaceTail(a, 1, nil)
	if got := s.Terminals(1); got != 1 {
		t.Fatalf("Terminals(1)=%d want 1 after truncation", got)
	}
	if got := s.Terminals(9); got != 0 {
		t.Fatalf("Terminals(9)=%d want 0 after truncation", got)
	}
	// A path revisiting its terminal node: 5 appears twice, once terminal.
	d := s.Add(path(5, 6, 5))
	if got, want := s.Visits(5), int64(2); got != want {
		t.Fatalf("Visits(5)=%d want %d", got, want)
	}
	if got := s.Terminals(5); got != 1 {
		t.Fatalf("Terminals(5)=%d want 1", got)
	}
	if got := s.Candidates(5); got != 1 {
		t.Fatalf("Candidates(5)=%d want 1", got)
	}

	s.Remove(b)
	s.Remove(c)
	s.Remove(d)
	if got := s.Terminals(3); got != 0 {
		t.Fatalf("Terminals(3)=%d want 0 after removals", got)
	}
	if got := s.Terminals(5); got != 0 {
		t.Fatalf("Terminals(5)=%d want 0 after removals", got)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestVisitFraction(t *testing.T) {
	s := New()
	s.Add(path(1, 2, 2))
	s.Add(path(3))
	visits, total := s.VisitFraction(2)
	if visits != 2 || total != 4 {
		t.Fatalf("VisitFraction(2)=(%d,%d) want (2,4)", visits, total)
	}
	if visits, total = s.VisitFraction(99); visits != 0 || total != 4 {
		t.Fatalf("VisitFraction(99)=(%d,%d) want (0,4)", visits, total)
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}
