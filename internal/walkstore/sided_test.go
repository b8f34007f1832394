package walkstore

import (
	"math/rand/v2"
	"testing"

	"fastppr/internal/graph"
)

// sidedBrute recomputes every sided counter from the stored paths.
type sidedBrute struct {
	visits    [2]map[graph.NodeID]int64
	terminals [2]map[graph.NodeID]int64
	totals    [2]int64
}

func bruteSided(s *Store, live map[SegmentID]bool) sidedBrute {
	var b sidedBrute
	for d := 0; d < 2; d++ {
		b.visits[d] = make(map[graph.NodeID]int64)
		b.terminals[d] = make(map[graph.NodeID]int64)
	}
	for id := range live {
		side := s.SideOf(id)
		if side < 0 {
			continue
		}
		p := s.Path(id)
		for pos, v := range p {
			d := side.PendingAt(pos)
			b.visits[d][v]++
			b.totals[d]++
		}
		b.terminals[side.PendingAt(len(p)-1)][p[len(p)-1]]++
	}
	return b
}

func checkSided(t *testing.T, s *Store, live map[SegmentID]bool, nodes []graph.NodeID) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	b := bruteSided(s, live)
	for d := Side(0); d < 2; d++ {
		if _, got := s.PendingVisitFraction(0, d); got != b.totals[d] {
			t.Fatalf("PendingVisitFraction(0,%d) total=%d want %d", d, got, b.totals[d])
		}
		var nodesSeen int
		var total int64
		s.EachPendingVisitCount(d, func(_ graph.NodeID, x int64) {
			nodesSeen++
			total += x
		})
		if total != b.totals[d] || nodesSeen != len(b.visits[d]) {
			t.Fatalf("EachPendingVisitCount(%d): %d nodes/%d total, want %d/%d",
				d, nodesSeen, total, len(b.visits[d]), b.totals[d])
		}
		for _, v := range nodes {
			if got := s.PendingVisits(v, d); got != b.visits[d][v] {
				t.Fatalf("PendingVisits(%d,%d)=%d want %d", v, d, got, b.visits[d][v])
			}
			if got := s.PendingTerminals(v, d); got != b.terminals[d][v] {
				t.Fatalf("PendingTerminals(%d,%d)=%d want %d", v, d, got, b.terminals[d][v])
			}
			if got := s.PendingCandidates(v, d); got != b.visits[d][v]-b.terminals[d][v] {
				t.Fatalf("PendingCandidates(%d,%d)=%d want %d", v, d, got, b.visits[d][v]-b.terminals[d][v])
			}
		}
	}
}

func TestSidedCountersBasic(t *testing.T) {
	s := New()
	// Forward-first from 1: pending directions F,B,F,B... at positions 0..3.
	f := s.AddSided([]graph.NodeID{1, 2, 1, 3}, SideForward)
	// Backward-first from 2: pending B,F,B.
	b := s.AddSided([]graph.NodeID{2, 1, 2}, SideBackward)
	// An unsided segment must not touch the sided tables.
	u := s.Add([]graph.NodeID{1, 2, 3})

	if got := s.SideOf(f); got != SideForward {
		t.Fatalf("SideOf(f)=%d", got)
	}
	if got := s.SideOf(b); got != SideBackward {
		t.Fatalf("SideOf(b)=%d", got)
	}
	if got := s.SideOf(u); got != Unsided {
		t.Fatalf("SideOf(u)=%d", got)
	}
	// Node 1: segment f visits at pos 0 (pending F) and pos 2 (pending F);
	// segment b at pos 1 (pending F). No authority-side visits at 1.
	if got := s.PendingVisits(1, SideForward); got != 3 {
		t.Fatalf("PendingVisits(1,F)=%d want 3", got)
	}
	if got := s.PendingVisits(1, SideBackward); got != 0 {
		t.Fatalf("PendingVisits(1,B)=%d want 0", got)
	}
	// Terminals: f ends at 3 on pos 3 (pending B); b ends at 2 on pos 2 (pending B).
	if got := s.PendingTerminals(3, SideBackward); got != 1 {
		t.Fatalf("PendingTerminals(3,B)=%d want 1", got)
	}
	if got := s.PendingTerminals(2, SideBackward); got != 1 {
		t.Fatalf("PendingTerminals(2,B)=%d want 1", got)
	}
	if got := s.AppendOwnedSided(nil, 1, SideForward); len(got) != 1 || got[0] != f {
		t.Fatalf("AppendOwnedSided(1,F)=%v", got)
	}
	if got := s.AppendOwnedSided(nil, 1, SideBackward); len(got) != 0 {
		t.Fatalf("AppendOwnedSided(1,B)=%v", got)
	}
	live := map[SegmentID]bool{f: true, b: true, u: true}
	checkSided(t, s, live, []graph.NodeID{1, 2, 3})
}

func TestSidedReplaceTailAndRemove(t *testing.T) {
	s := New()
	f := s.AddSided([]graph.NodeID{1, 2, 3, 4}, SideForward)
	b := s.AddSided([]graph.NodeID{4, 3, 2, 1}, SideBackward)
	live := map[SegmentID]bool{f: true, b: true}
	nodes := []graph.NodeID{1, 2, 3, 4, 5, 6}

	// Truncate f after position 1 and regrow: parity of the kept prefix is
	// unchanged, the new tail's pending directions follow from position.
	s.ReplaceTail(f, 2, []graph.NodeID{5, 6})
	checkSided(t, s, live, nodes)
	// Pure truncation: terminal moves to the kept prefix's end.
	s.ReplaceTail(b, 2, nil)
	checkSided(t, s, live, nodes)
	// Extension from the terminal.
	s.ReplaceTail(b, 2, []graph.NodeID{5})
	checkSided(t, s, live, nodes)

	s.Remove(f)
	delete(live, f)
	checkSided(t, s, live, nodes)
	if got := s.AppendOwnedSided(nil, 1, SideForward); len(got) != 0 {
		t.Fatalf("removed segment still in sided owner index: %v", got)
	}
	s.Remove(b)
	delete(live, b)
	checkSided(t, s, live, nodes)
	for d := Side(0); d < 2; d++ {
		if _, got := s.PendingVisitFraction(0, d); got != 0 {
			t.Fatalf("PendingVisitFraction(0,%d) total=%d after removing everything", d, got)
		}
	}
}

// TestSidedRandomizedStress drives a mixed sided/unsided store through
// random mutations and cross-checks every sided counter against brute force.
func TestSidedRandomizedStress(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 0))
	s := New()
	live := make(map[SegmentID]bool)
	var ids []SegmentID
	nodes := make([]graph.NodeID, 12)
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	randPath := func() []graph.NodeID {
		p := make([]graph.NodeID, 1+rng.IntN(6))
		for i := range p {
			p[i] = nodes[rng.IntN(len(nodes))]
		}
		return p
	}
	ops := 600
	if testing.Short() {
		ops = 200
	}
	for op := 0; op < ops; op++ {
		switch k := rng.IntN(4); {
		case k == 0 || len(ids) == 0:
			side := Side(rng.IntN(3) - 1) // Unsided, Forward, or Backward
			var id SegmentID
			if side == Unsided {
				id = s.Add(randPath())
			} else {
				id = s.AddSided(randPath(), side)
			}
			live[id] = true
			ids = append(ids, id)
		case k == 1:
			id := ids[rng.IntN(len(ids))]
			if !live[id] {
				continue
			}
			p := s.Path(id)
			keep := 1 + rng.IntN(len(p))
			var tail []graph.NodeID
			if rng.IntN(3) > 0 {
				tail = randPath()
			}
			s.ReplaceTail(id, keep, tail)
		default:
			id := ids[rng.IntN(len(ids))]
			if !live[id] {
				continue
			}
			s.Remove(id)
			delete(live, id)
		}
	}
	checkSided(t, s, live, nodes)
}

// TestPendingCountersUnsided pins that the sided counter API answers for
// Unsided too, with exactly Candidates and Terminals, so a repair phase
// reads one API for every side.
func TestPendingCountersUnsided(t *testing.T) {
	s := New()
	s.Add([]graph.NodeID{1, 2, 1, 3})
	s.Add([]graph.NodeID{1})
	for v := graph.NodeID(0); v <= 3; v++ {
		if got, want := s.PendingCandidates(v, Unsided), s.Candidates(v); got != want {
			t.Fatalf("PendingCandidates(%d, Unsided)=%d, Candidates=%d", v, got, want)
		}
		if got, want := s.PendingTerminals(v, Unsided), s.Terminals(v); got != want {
			t.Fatalf("PendingTerminals(%d, Unsided)=%d, Terminals=%d", v, got, want)
		}
	}
	if got := s.PendingCandidates(1, Unsided); got != 2 {
		t.Fatalf("PendingCandidates(1, Unsided)=%d want 2", got)
	}
	if got := s.PendingTerminals(1, Unsided); got != 1 {
		t.Fatalf("PendingTerminals(1, Unsided)=%d want 1", got)
	}
}
