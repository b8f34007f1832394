package walkstore

import (
	"errors"
	"reflect"
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

// logEvent is one recorded MutationLog call.
type logEvent struct {
	kind    byte // 'a', 'r', 'd'
	id      SegmentID
	epochAt int64 // store epoch observed during the call
}

type recordingLog struct {
	s      *Store
	events []logEvent
}

func (l *recordingLog) LogAdd(id SegmentID, side Side, path []graph.NodeID) {
	l.events = append(l.events, logEvent{kind: 'a', id: id, epochAt: l.s.Epoch()})
}
func (l *recordingLog) LogReplaceTail(id SegmentID, keep int, tail []graph.NodeID) {
	l.events = append(l.events, logEvent{kind: 'r', id: id, epochAt: l.s.Epoch()})
}
func (l *recordingLog) LogRemove(id SegmentID) {
	l.events = append(l.events, logEvent{kind: 'd', id: id, epochAt: l.s.Epoch()})
}

// TestSerializedStormOrdering drives a serialized mutation storm with the
// mutation log attached and checks the ordering contract it documents: one
// call per epoch tick, in tick order, with batch adds delivered in ascending
// ID order.
func TestSerializedStormOrdering(t *testing.T) {
	s := New()
	rec := &recordingLog{s: s}
	s.SetMutationLog(rec)

	ids := s.AddBatch([][]graph.NodeID{{1, 2, 3}, {2, 3}, {3}})
	s.ReplaceTail(ids[0], 1, []graph.NodeID{5, 6})
	s.Remove(ids[1])
	s.AddSided([]graph.NodeID{1, 4}, SideBackward)

	wantKinds := []byte{'a', 'a', 'a', 'r', 'd', 'a'}
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
	if s2.segs[ids[1]].live {
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
