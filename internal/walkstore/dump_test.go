package walkstore

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"

	"fastppr/internal/graph"
)

func TestEpochSemantics(t *testing.T) {
	s := New()
	if s.Epoch() != 0 {
		t.Fatalf("fresh store at epoch %d", s.Epoch())
	}
	ids := s.AddBatch([][]graph.NodeID{{1, 2}, {2, 3}, {3, 1}})
	if got := s.Epoch(); got != 3 {
		t.Fatalf("epoch after 3-path batch = %d, want 3 (one tick per stored path)", got)
	}
	s.AddSided([]graph.NodeID{4, 5}, SideForward)
	if got := s.Epoch(); got != 4 {
		t.Fatalf("epoch after AddSided = %d, want 4", got)
	}
	s.ReplaceTail(ids[0], 1, []graph.NodeID{7})
	if got := s.Epoch(); got != 5 {
		t.Fatalf("epoch after ReplaceTail = %d, want 5", got)
	}
	// A no-op replacement (keep everything, add nothing) must not tick: no
	// segment state changed, so a WAL journaling one record per tick would
	// otherwise drift from the store.
	s.ReplaceTail(ids[1], 2, nil)
	if got := s.Epoch(); got != 5 {
		t.Fatalf("epoch after no-op ReplaceTail = %d, want 5 still", got)
	}
	s.Remove(ids[2])
	if got := s.Epoch(); got != 6 {
		t.Fatalf("epoch after Remove = %d, want 6", got)
	}
}

// logEvent is one recorded MutationLog call, kept whole so the log can be
// replayed.
type logEvent struct {
	kind    byte // 'a', 'r', 'd'
	id      SegmentID
	side    Side
	keep    int
	path    []graph.NodeID // LogAdd's path, LogReplaceTail's tail
	epochAt int64          // store epoch observed during the call
}

// recordingLog is a MutationLog that records every call and, inside each
// one, checks the docs/DESIGN.md §8 journal rule the store's helpers hold by
// construction: segMu is write-held, the mutation is already in the segment
// table, and it counts as in flight. A call that breaks any of the three is
// reported by name.
type recordingLog struct {
	t      *testing.T
	s      *Store
	events []logEvent
}

// check asserts the journal rule for call; applied reports whether the
// segment table already shows the mutation.
func (l *recordingLog) check(call string, id SegmentID, applied func(r segRef) bool) {
	l.t.Helper()
	if l.s.segMu.TryRLock() {
		l.s.segMu.RUnlock()
		l.t.Errorf("%s ran without segMu write-held: journal order is no longer mutation order", call)
		return // reading the segment table unlocked would race
	}
	if n := l.s.mutators.Load(); n < 1 {
		l.t.Errorf("%s ran with %d mutations in flight: Validate and Dump could pass mid-mutation", call, n)
	}
	if int(id) >= l.s.nsegs || !applied(l.s.refAt(id)) {
		l.t.Errorf("%s ran before its mutation reached the segment table", call)
	}
}

func (l *recordingLog) LogAdd(id SegmentID, side Side, path []graph.NodeID) {
	l.check(fmt.Sprintf("LogAdd(%d)", id), id, func(r segRef) bool {
		return r.live() && r.side() == side && slices.Equal(l.s.pathOf(r), path)
	})
	l.events = append(l.events, logEvent{kind: 'a', id: id, side: side, path: path, epochAt: l.s.Epoch()})
}
func (l *recordingLog) LogReplaceTail(id SegmentID, keep int, tail []graph.NodeID) {
	l.check(fmt.Sprintf("LogReplaceTail(%d, keep=%d)", id, keep), id, func(r segRef) bool {
		return r.live() && r.n() == keep+len(tail) && slices.Equal(l.s.pathOf(r)[keep:], tail)
	})
	l.events = append(l.events, logEvent{kind: 'r', id: id, keep: keep, path: tail, epochAt: l.s.Epoch()})
}
func (l *recordingLog) LogRemove(id SegmentID) {
	l.check(fmt.Sprintf("LogRemove(%d)", id), id, func(r segRef) bool { return !r.live() })
	l.events = append(l.events, logEvent{kind: 'd', id: id, epochAt: l.s.Epoch()})
}

// replay applies the recorded calls in order to a fresh store.
func (l *recordingLog) replay(t *testing.T) *Store {
	t.Helper()
	s := New()
	for i, ev := range l.events {
		switch ev.kind {
		case 'a':
			if id := s.AddSided(ev.path, ev.side); id != ev.id {
				t.Fatalf("replayed call %d: LogAdd(%d) assigned ID %d", i, ev.id, id)
			}
		case 'r':
			s.ReplaceTail(ev.id, ev.keep, ev.path)
		case 'd':
			s.Remove(ev.id)
		}
	}
	return s
}

// TestSerializedStormOrdering drives a serialized mutation storm with the
// mutation log attached through every mutating entry point and checks the
// ordering contract it documents: one call per epoch tick, in tick order,
// with batch adds delivered in ascending ID order, each call inside its
// mutation's critical section (recordingLog's checks), and a log that
// replays into the live store.
func TestSerializedStormOrdering(t *testing.T) {
	s := New()
	rec := &recordingLog{t: t, s: s}
	s.SetMutationLog(rec)

	ids := s.AddBatch([][]graph.NodeID{{1, 2, 3}, {2, 3}, {3}})
	s.ReplaceTail(ids[0], 1, []graph.NodeID{5, 6})
	s.Remove(ids[1])
	s.AddSided([]graph.NodeID{1, 4}, SideBackward)
	sided := s.AddBatchSided([][]graph.NodeID{{4, 1, 2}, {2, 5}}, SideForward)
	s.ReplaceTailBatch([]TailMutation{
		{ID: sided[0], Keep: 1, NewTail: []graph.NodeID{3}},
		{ID: ids[2], Keep: 1}, // no-op: not journaled
		{ID: ids[0], Keep: 2, NewTail: []graph.NodeID{7}},
	})
	s.Remove(sided[1])

	wantKinds := []byte{'a', 'a', 'a', 'r', 'd', 'a', 'a', 'a', 'r', 'r', 'd'}
	if len(rec.events) != len(wantKinds) {
		t.Fatalf("mutation log saw %d calls, want %d", len(rec.events), len(wantKinds))
	}
	if got := s.Epoch(); got != int64(len(wantKinds)) {
		t.Fatalf("epoch %d after %d logged mutations", got, len(wantKinds))
	}
	for i, ev := range rec.events {
		if ev.kind != wantKinds[i] {
			t.Errorf("log call %d is %q, want %q", i, ev.kind, wantKinds[i])
		}
	}
	// Batch adds arrive in ascending assigned-ID order.
	if rec.events[0].id >= rec.events[1].id || rec.events[1].id >= rec.events[2].id {
		t.Errorf("batch add log order not ascending by ID: %v", rec.events[:3])
	}
	// The log runs inside its mutation's critical section, before the
	// epoch bump publishes it, so the epoch a call observes never exceeds
	// the number of fully completed mutations — and never regresses.
	for i := 1; i < len(rec.events); i++ {
		if rec.events[i].epochAt < rec.events[i-1].epochAt {
			t.Fatalf("mutation log epoch regressed at call %d: %v", i, rec.events)
		}
	}
	assertSameDump(t, rec.replay(t), s)
}

// TestConcurrentJournalReplays is the concurrent half of the journal rule:
// writers churn disjoint segment sets through every mutating entry point at
// once, and the log they interleave into, replayed in order into a fresh
// store, must rebuild the live store's Dump — IDs, dead slots, paths and
// epoch. A journal call outside its mutation's critical section fails
// recordingLog's checks by name, and can let two writers' records swap so
// that the replay diverges.
func TestConcurrentJournalReplays(t *testing.T) {
	const (
		writers   = 4
		nodeSpace = 32
	)
	iters := 2000
	if testing.Short() {
		iters = 300
	}
	s := New()
	rec := &recordingLog{t: t, s: s}
	s.SetMutationLog(rec)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 7))
			side := []Side{Unsided, SideForward, SideBackward}[w%3]
			randPath := func(n int) []graph.NodeID {
				p := make([]graph.NodeID, n)
				for i := range p {
					p[i] = graph.NodeID(rng.IntN(nodeSpace))
				}
				return p
			}
			var owned []SegmentID
			for it := 0; it < iters; it++ {
				switch op := rng.IntN(8); {
				case op < 2 || len(owned) < 2:
					owned = append(owned, s.AddBatchSided([][]graph.NodeID{randPath(1 + rng.IntN(4)), randPath(1 + rng.IntN(4))}, side)...)
				case op < 4:
					id := owned[rng.IntN(len(owned))]
					s.ReplaceTail(id, 1+rng.IntN(len(s.Path(id))), randPath(rng.IntN(4)))
				case op < 6:
					a, b := owned[rng.IntN(len(owned))], owned[rng.IntN(len(owned))]
					s.ReplaceTailBatch([]TailMutation{
						{ID: a, Keep: 1, NewTail: randPath(rng.IntN(4))},
						{ID: b, Keep: 1, NewTail: randPath(rng.IntN(4))},
					})
				default:
					i := rng.IntN(len(owned))
					s.Remove(owned[i])
					owned = slices.Delete(owned, i, i+1)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != int64(len(rec.events)) {
		t.Fatalf("epoch %d after %d logged mutations", got, len(rec.events))
	}
	assertSameDump(t, rec.replay(t), s)
}

// assertSameDump fails unless got and want dump identically.
func assertSameDump(t *testing.T, got, want *Store) {
	t.Helper()
	g, err := got.Dump()
	if err != nil {
		t.Fatal(err)
	}
	w, err := want.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("replayed log dumps differently from the live store:\n got %+v\nwant %+v", g, w)
	}
}

func TestDumpRestoreRoundTrip(t *testing.T) {
	s := New()
	var ids []SegmentID
	ids = append(ids, s.AddBatchSided([][]graph.NodeID{{1, 2, 3}, {2, 3}}, SideForward)...)
	ids = append(ids, s.AddSided([]graph.NodeID{3, 1, 2}, SideBackward))
	ids = append(ids, s.Add([]graph.NodeID{5}))
	s.ReplaceTail(ids[0], 2, []graph.NodeID{7, 8})
	s.Remove(ids[1]) // leaves a dead slot mid-table

	d, err := s.Dump()
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	s2, err := Restore(d)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := s2.Validate(); err != nil {
		t.Fatalf("restored store fails Validate: %v", err)
	}
	if g, w := s2.Epoch(), s.Epoch(); g != w {
		t.Errorf("epoch = %d, want %d", g, w)
	}
	if g, w := s2.TotalVisits(), s.TotalVisits(); g != w {
		t.Errorf("total visits = %d, want %d", g, w)
	}
	if !reflect.DeepEqual(s2.VisitCounts(), s.VisitCounts()) {
		t.Error("visit counts diverge after restore")
	}
	for _, v := range []graph.NodeID{1, 2, 3, 5, 7, 8} {
		if g, w := s2.OwnedBy(v), s.OwnedBy(v); !reflect.DeepEqual(g, w) {
			t.Errorf("OwnedBy(%d) = %v, want %v", v, g, w)
		}
		for _, dir := range []Side{SideForward, SideBackward} {
			if g, w := s2.PendingPositions(v, dir), s.PendingPositions(v, dir); !reflect.DeepEqual(g, w) {
				t.Errorf("PendingPositions(%d, %d) = %v, want %v", v, dir, g, w)
			}
		}
	}
	// The dead slot must survive the round trip so ID assignment continues
	// identically.
	if s2.refAt(ids[1]).live() {
		t.Error("removed segment came back live after restore")
	}
	if g, w := s2.Add([]graph.NodeID{9}), s.Add([]graph.NodeID{9}); g != w {
		t.Errorf("next assigned ID = %d, want %d", g, w)
	}
}

func TestDumpRefusesConcurrentMutation(t *testing.T) {
	s := New()
	s.Add([]graph.NodeID{1, 2})
	s.mutators.Add(1)
	defer s.mutators.Add(-1)
	if _, err := s.Dump(); !errors.Is(err, ErrConcurrentMutation) {
		t.Fatalf("Dump with a mutation in flight = %v, want ErrConcurrentMutation", err)
	}
}
