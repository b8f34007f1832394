package walkstore

import (
	"fmt"

	"fastppr/internal/graph"
)

// SegmentDump is one slot of a store dump, indexed by SegmentID. Dead slots
// (segments removed before the dump) carry Live == false and no path; they
// are preserved so a restored store assigns the same ID to its next Add —
// segment IDs drive the pending-position enumeration order the maintainers
// draw RNG indices over, so recovery must reproduce them bitwise, dead gaps
// included.
type SegmentDump struct {
	Live bool
	Side Side
	Path []graph.NodeID
}

// Dump is a point-in-time copy of everything a store needs to be rebuilt:
// the full segment table (live paths plus dead-slot gaps) and the epoch the
// copy was taken at. The visit totals are derivable from the live paths;
// they are carried anyway so Restore can cross-check its recount against
// what the live store believed.
type Dump struct {
	Epoch       int64
	TotalVisits int64
	SidedTotals [2]int64
	Segs        []SegmentDump
}

// Dump captures the store for a snapshot. It requires quiescence and
// enforces it the same way Validate does: with the segment lock and every
// counter stripe held, a non-zero in-flight mutation count is definitive and
// the dump fails with ErrConcurrentMutation (wrapped) instead of copying a
// store caught between a mutation's arena and counter phases.
func (s *Store) Dump() (*Dump, error) {
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	for i := range s.stripes {
		s.stripes[i].mu.RLock()
		defer s.stripes[i].mu.RUnlock()
	}
	if n := s.mutators.Load(); n != 0 {
		return nil, fmt.Errorf("%w: %d segment mutations in flight during Dump", ErrConcurrentMutation, n)
	}
	d := &Dump{
		Epoch:       s.epoch.Load(),
		TotalVisits: s.totalVisits.Load(),
		SidedTotals: [2]int64{s.sidedTotals[0].Load(), s.sidedTotals[1].Load()},
		Segs:        make([]SegmentDump, s.nsegs),
	}
	for i := range d.Segs {
		r := s.refAt(SegmentID(i))
		if !r.live() {
			continue
		}
		d.Segs[i] = SegmentDump{
			Live: true,
			Side: r.side(),
			Path: append([]graph.NodeID(nil), s.pathOf(r)...),
		}
	}
	return d, nil
}

// Restore builds a fresh store from a dump, rebuilding every derived
// structure — counters, owner lists, terminals, and the pending-position
// index — from the live paths, then cross-checking the recounted totals
// against the dump's. The rebuilt store is behaviorally identical to the
// dumped one: segment IDs (dead slots included), epoch, owner-list order
// (per node, entries were appended in ascending-ID order on the live store,
// which is exactly the order a single ascending pass reproduces), and every
// counter match bitwise; only arena placement differs, and nothing
// observes that.
func Restore(d *Dump) (*Store, error) {
	s := New()
	// The store is private to this goroutine until Restore returns, so no
	// locks are taken, here or below.
	for i, sd := range d.Segs {
		if !sd.Live {
			s.nsegs++ // a dead slot's ref stays zero
			continue
		}
		if len(sd.Path) == 0 || len(sd.Path) > maxSegLen {
			return nil, fmt.Errorf("walkstore: restore: live segment %d has a path of %d nodes", i, len(sd.Path))
		}
		if sd.Side != Unsided && sd.Side != SideForward && sd.Side != SideBackward {
			return nil, fmt.Errorf("walkstore: restore: segment %d has invalid side %d", i, sd.Side)
		}
		s.appendSegmentLocked(sd.Path, sd.Side)
	}

	// Re-index every live segment in ascending ID order. This mirrors
	// indexBatch but carries the side per segment, since one restore pass
	// spans sides the live store added in separate batches.
	type restoreOp struct {
		id   SegmentID
		v    graph.NodeID
		pos  int32
		side Side
		kind uint8
	}
	var ops [numStripes][]restoreOp
	var total int64
	var sided [2]int64
	for i := 0; i < s.nsegs; i++ {
		id := SegmentID(i)
		r := s.refAt(id)
		if !r.live() {
			continue
		}
		p, side := s.pathOf(r), r.side()
		src := p[0]
		ops[stripeIndex(src)] = append(ops[stripeIndex(src)], restoreOp{id: id, v: src, side: side, kind: opOwner})
		end := p[len(p)-1]
		ops[stripeIndex(end)] = append(ops[stripeIndex(end)], restoreOp{id: id, v: end, pos: int32(len(p) - 1), side: side, kind: opTerminal})
		for pos, v := range p {
			ops[stripeIndex(v)] = append(ops[stripeIndex(v)], restoreOp{id: id, v: v, pos: int32(pos), side: side, kind: opVisit})
			total++
			if side >= 0 {
				sided[side.PendingAt(pos)]++
			}
		}
	}
	for si := range ops {
		st := &s.stripes[si]
		for _, op := range ops[si] {
			switch op.kind {
			case opOwner:
				ns := st.nodeCreate(op.v)
				ns.owned = append(ns.owned, op.id)
				if op.side >= 0 {
					ns.ownedSided[op.side] = append(ns.ownedSided[op.side], op.id)
				}
			case opTerminal:
				ns := st.nodeCreate(op.v)
				ns.terminals++
				if op.side >= 0 {
					ns.sidedTerminals[op.side.PendingAt(int(op.pos))]++
				}
			case opVisit:
				s.addVisitLocked(st, op.id, op.v, int(op.pos), op.side)
			}
		}
	}
	s.bumpTotals(total, sided)

	if total != d.TotalVisits {
		return nil, fmt.Errorf("walkstore: restore: dump declares %d total visits, paths recount %d", d.TotalVisits, total)
	}
	for dir := 0; dir < 2; dir++ {
		if sided[dir] != d.SidedTotals[dir] {
			return nil, fmt.Errorf("walkstore: restore: dump declares %d sided visits for direction %d, paths recount %d",
				d.SidedTotals[dir], dir, sided[dir])
		}
	}
	s.epoch.Store(d.Epoch)
	return s, nil
}
