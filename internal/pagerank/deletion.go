package pagerank

import (
	"fastppr/internal/graph"
	"fastppr/internal/repair"
	"fastppr/internal/walkstore"
)

// This file sequences the reverse of the arrival repair: edge deletions, one
// unsided repair.Kernel.Unroute phase each. The paper
// only handles arrivals; the deletion rule below is the unique one that keeps
// the stored segments distributed as fresh walks on the post-removal graph.
//
// Remove one copy of (u, v) whose pre-removal multiplicity was c, leaving u
// with d surviving out-edges. A stored step from u to v chose uniformly among
// u's old out-edge multiset, so conditioned on landing on v it used the
// removed copy with probability 1/c (deterministically when the last copy
// goes). Such a step must be re-sampled: keep the prefix, step to a uniform
// survivor — no reset coin, the original step had already passed its coin —
// and continue with a fresh geometric tail on the new graph. Steps to v
// through a surviving copy, and steps to other neighbors, stay put:
// conditioned on not using the removed copy they are already uniform over
// the survivors. When d == 0 the re-sampled step has nowhere to go and the
// walk terminates at u — the revival law run in reverse; memorylessness makes
// the truncated terminal indistinguishable from a fresh walk dying at a
// dangling node, so a later first arrival at u revives it under the usual
// 1-eps law.
//
// Within one segment the first re-sampled step wins — everything after it is
// regenerated — so later candidate steps of the same segment are superseded
// and consume no randomness. There is no skip coin: no stored counter tracks
// steps through one specific edge, so a deletion always scans its O(hits)
// enumeration and the SlowNoops == 0 invariant is untouched by deletions.
// ref_test.go states the same rule over plain paths and checks the kernel's
// scan against it bitwise.

// ApplyDeletion consumes one edge deletion: it removes one copy of the edge
// from the social store and repairs every stored walk that traversed it.
// Deleting an edge not in the graph is a counted no-op. Always serialized;
// use ApplyDeletions or ApplyEvents with UpdateWorkers for concurrent
// consumption.
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
// scan, stranding a stored step through a missing edge. Such a straggler
// needs another worker's write during the batch, and every step a worker
// writes is either sampled from the live graph — through the worker's
// Recorder, so its edge is a suspect — or a repair's first step out of the
// source it holds the stripe of, which every deletion of that edge holds too
// and so sees. For each suspect still absent, re-running the repair with
// pre-removal multiplicity 1 captures its stragglers deterministically; a
// suspect re-present at sweep time (a surviving multi-edge copy, or re-added
// by an interleaved arrival) is skipped — its stored steps are legal. The
// graph is quiescent under m.mu, so fresh tails cannot strand new steps, and
// the missing-edge-step invariant holds whenever a batch call returns.
func (m *Maintainer) sweepStragglers(suspects []graph.Edge) {
	if len(suspects) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cnt.suspects.Add(int64(len(suspects)))
	for _, ed := range suspects {
		u, v := ed.From, ed.To
		lk := m.srcMu.Of(uint64(u))
		lk.Lock()
		if m.soc.CountEdges(u, v) == 0 {
			m.cnt.swept.Add(1)
			m.serial.Reset()
			m.k.Unroute(m.serial, u, v, walkstore.Unsided, 1, m.soc.OutDegree(u))
		}
		lk.Unlock()
	}
}

// applyOneDel removes one copy of (u, v) and repairs the stored walks under
// u's source stripe — the same lock the arrival path holds, so no other
// write from u lands between the removal and its repair.
func (m *Maintainer) applyOneDel(ed graph.Edge, w *repair.Worker) {
	m.cnt.deletions.Add(1)
	u, v := ed.From, ed.To
	lk := m.srcMu.Of(uint64(u))
	lk.Lock()
	d, _, left, ok := m.soc.RemoveEdge(u, v)
	if !ok {
		lk.Unlock()
		m.cnt.delMisses.Add(1)
		return
	}
	// The edge is removed before the repair so fresh tails sample the new
	// graph. The write's reply carries u's surviving out-degree and the copies
	// left; the pre-removal multiplicity is those plus the removed one.
	w.Reset()
	m.k.Unroute(w, u, v, walkstore.Unsided, left+1, d)
	lk.Unlock()
	m.k.MaybeCompact()
}
