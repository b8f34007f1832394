package salsa

import (
	"fastppr/internal/graph"
	"fastppr/internal/repair"
	"fastppr/internal/walkstore"
)

// This file sequences the sided reverse of the arrival repair: edge
// deletions for the alternating SALSA walks, one repair.Kernel.Unroute phase
// per side. Removing one copy of (u, v) with pre-removal
// multiplicity c perturbs stored steps on both sides of the bipartite view:
//
//   - every stored *forward* step u -> v used the removed copy with
//     probability 1/c; a captured step keeps its prefix, re-steps to a
//     uniform surviving out-neighbor of u (no reset coin — the captured step
//     had already passed its coin) and continues with a fresh alternating
//     tail (backward next). With no surviving out-edge the walk terminates
//     at u forward-pending — the forward revival law run in reverse, and a
//     later first out-edge revives it under the usual 1-eps coin.
//   - every stored *backward* step v -> u used the removed copy with
//     probability 1/c; a captured step re-steps to a uniform surviving
//     in-neighbor of v and continues forward-next. Backward steps carry no
//     reset coin at all, so with no surviving in-edge the walk terminates at
//     v backward-pending deterministically — the mirror of the coin-free
//     backward revival.
//
// The backward phase excludes positions the forward phase just regenerated
// (they were sampled on the post-removal graph): the kernel worker records
// the segments each phase regrew, as on the arrival path. Within one
// segment and one phase the first captured step wins and later candidates
// consume no randomness; ref_test.go states the same rule over plain paths
// and checks the kernel's scan on both sides against it bitwise. Deletions have no skip coin and
// leave the arrival counters (and SlowNoops == 0) untouched.

// ApplyDeletion consumes one edge deletion: it removes one copy of the edge
// from the social store and repairs the stored walks whose forward steps
// traversed it from the source or whose backward steps traversed it from the
// target. Deleting an edge not in the graph is a counted no-op. Always
// serialized; use ApplyDeletions or ApplyEvents with UpdateWorkers for
// concurrent consumption.
func (m *Maintainer) ApplyDeletion(ed graph.Edge) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.applyOneDel(ed, m.serial)
}

// ApplyDeletions consumes a batch of deletions under the same
// serialized-vs-parallel regime as ApplyEdges.
func (m *Maintainer) ApplyDeletions(edges []graph.Edge) {
	if m.cfg.UpdateWorkers > 1 {
		suspects := m.k.Pool(len(edges), nil, edges, func(i int, w *repair.Worker) {
			m.applyOneDel(edges[i], w)
		})
		m.sweepStragglers(suspects)
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ed := range edges {
		m.applyOneDel(ed, m.serial)
	}
}

// ApplyEvents consumes a mixed churn stream of arrivals and deletions. With
// UpdateWorkers <= 1 events are applied in order by one goroutine (fully
// reproducible per seed); with more workers they are claimed from a shared
// cursor and applied concurrently, reproducible in distribution. A deletion
// racing the arrival of the same edge on another worker may observe the edge
// as missing and count a DelMiss, exactly as it would if the stream had been
// reordered.
func (m *Maintainer) ApplyEvents(events []graph.Event) {
	if m.cfg.UpdateWorkers > 1 {
		var dels []graph.Edge
		for _, ev := range events {
			if ev.Del {
				dels = append(dels, ev.Edge)
			}
		}
		suspects := m.k.Pool(len(events), nil, dels, func(i int, w *repair.Worker) {
			if events[i].Del {
				m.applyOneDel(events[i].Edge, w)
			} else {
				m.applyOne(events[i].Edge, w)
			}
		})
		m.sweepStragglers(suspects)
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ev := range events {
		if ev.Del {
			m.applyOneDel(ev.Edge, m.serial)
		} else {
			m.applyOne(ev.Edge, m.serial)
		}
	}
}

// sweepStragglers is the serialized pass after a parallel deletion batch. A
// tail regrown by a concurrent repair can sample a deleted edge just before
// it leaves the graph and index the step just after the deleting worker's
// scans, stranding a stored forward or backward step through a missing edge.
// Such a straggler needs another worker's write during the batch, and every
// step a worker writes is either sampled from the live graph — through the
// worker's Recorder, so its edge is a suspect — or a repair's first step out
// of an endpoint whose stripe it holds, which every deletion of that edge
// holds too and so sees. For each suspect still absent, re-running both
// sided repairs with pre-removal multiplicity 1 captures its stragglers
// deterministically; a suspect re-present at sweep time (a surviving
// multi-edge copy, or re-added by an interleaved arrival) is skipped — its
// stored steps are legal. The graph is quiescent under m.mu, so fresh tails
// cannot strand new steps, and the missing-edge-step invariant holds
// whenever a batch call returns. No observer fires: the sweep touches only
// the store, which the serving tier already tracks through its per-stripe
// epochs.
func (m *Maintainer) sweepStragglers(suspects []graph.Edge) {
	if len(suspects) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cnt.suspects.Add(int64(len(suspects)))
	for _, ed := range suspects {
		u, v := ed.From, ed.To
		li, lj := m.endMu.LockPair(2*uint64(u), 2*uint64(v)+1)
		if m.soc.CountEdges(u, v) == 0 {
			m.cnt.swept.Add(1)
			m.serial.Reset()
			m.k.Unroute(m.serial, u, v, walkstore.SideForward, 1, m.soc.OutDegree(u))
			m.k.Unroute(m.serial, v, u, walkstore.SideBackward, 1, m.soc.InDegree(v))
		}
		m.endMu.UnlockPair(li, lj)
	}
}

// applyOneDel removes one copy of (u, v) and runs both unroute phases under
// the same endpoint stripe pair the arrival path holds, so no other write
// sharing an endpoint lands between the removal and its repair.
func (m *Maintainer) applyOneDel(ed graph.Edge, w *repair.Worker) {
	m.cnt.deletions.Add(1)
	u, v := ed.From, ed.To
	li, lj := m.endMu.LockPair(2*uint64(u), 2*uint64(v)+1)
	dout, din, left, ok := m.soc.RemoveEdge(u, v)
	if !ok {
		m.endMu.UnlockPair(li, lj)
		m.cnt.delMisses.Add(1)
		return
	}
	// The edge is removed before the repair so fresh tails sample the new
	// graph. The write's reply carries both surviving degrees and the copies
	// left; the pre-removal multiplicity is those plus the removed one.
	c := left + 1
	w.Reset()
	// Forward phase: stored forward steps u -> v lost one of their c slots.
	m.k.Unroute(w, u, v, walkstore.SideForward, c, dout)
	// Backward phase: stored backward steps v -> u lost one of their c slots.
	// Runs after the forward phase so it can exclude the positions that phase
	// just regenerated (they already sampled the post-removal graph).
	m.k.Unroute(w, v, u, walkstore.SideBackward, c, din)
	m.endMu.UnlockPair(li, lj)
	// Bump-after ordering, as on the arrival path: the observer fires only
	// once every store and graph effect of the deletion is visible.
	if m.arrivalObs != nil {
		m.arrivalObs(ed)
	}
	m.k.MaybeCompact()
}
