package pagerank

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"fastppr/internal/graph"
	"fastppr/internal/walk"
	"fastppr/internal/walkstore"
)

// This file is the reverse of the arrival repair: edge deletions. The paper
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
// and consume no randomness, in both scan flavors, keeping fixed-seed
// serialized runs bitwise identical with LegacyScan on and off. There is no
// skip coin: no stored counter tracks steps through one specific edge, so a
// deletion always scans its O(hits) enumeration and the SlowNoops == 0
// invariant is untouched by deletions.

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
		suspects := m.eventsParallel(len(edges), m.cfg.UpdateWorkers, edges, func(i int, w *updater) {
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
		suspects := m.eventsParallel(len(events), m.cfg.UpdateWorkers, dels, func(i int, w *updater) {
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

// eventsParallel runs apply(i) for i in [0, n) over the worker pool, each
// worker with its own updater seeded like applyParallel's. When the batch
// deletes edges (dels), every worker samples through its own walk.Recorder
// watching them, and the distinct edges recorded come back as the straggler
// sweep's suspects.
func (m *Maintainer) eventsParallel(n, workers int, dels []graph.Edge, apply func(int, *updater)) (suspects []graph.Edge) {
	var watch walk.EdgeSet
	if len(dels) > 0 {
		watch = walk.NewEdgeSet(dels)
	}
	recs := make([]*walk.Recorder, workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		w := newUpdater(rand.New(rand.NewPCG(m.cfg.Seed, 0x9a6e0000+uint64(wk))), m.soc)
		if watch != nil {
			recs[wk] = walk.NewRecorder(m.soc, watch)
			w.nb = recs[wk]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					break
				}
				apply(i, w)
			}
		}()
	}
	wg.Wait()
	return walk.Distinct(recs)
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
			m.unroute(u, v, 1, m.soc.OutDegree(u), m.serial)
		}
		lk.Unlock()
	}
}

// applyOneDel removes one copy of (u, v) and repairs the stored walks under
// u's source stripe — the same lock the arrival path holds, so no other
// write from u lands between the removal and its repair.
func (m *Maintainer) applyOneDel(ed graph.Edge, w *updater) {
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
	m.unroute(u, v, left+1, d, w)
	lk.Unlock()
	m.maybeCompact()
}

// unroute runs the reverse reroute over every stored step u -> v. No skip
// coin and no retry loop: there is no pre-sampled first-success promise to
// keep, each candidate flips its own 1/c coin (none when c == 1 — the last
// copy captures every candidate deterministically).
func (m *Maintainer) unroute(u, v graph.NodeID, c, d int, w *updater) {
	if m.walks.Candidates(u) <= 0 {
		return // no stored non-terminal visit can step through the edge
	}
	ids, hits, held := m.freeze(u, w)
	defer m.segMu.UnlockSet(held)
	defer m.flushMuts(w)
	var rerouted, truncated int64
	if m.cfg.LegacyScan {
		rerouted, truncated = m.unrouteScan(ids, u, v, c, d, w)
	} else {
		rerouted, truncated = m.unrouteScanIndexed(hits, v, c, d, w)
	}
	m.cnt.delRerouted.Add(rerouted)
	m.cnt.delTruncated.Add(truncated)
}

// unrouteScan is the legacy full-path flavor: walk every frozen visitor's
// path looking for non-terminal steps u -> v, first captured step per
// segment wins.
func (m *Maintainer) unrouteScan(ids []walkstore.SegmentID, u, v graph.NodeID, c, d int, w *updater) (rerouted, truncated int64) {
	inv := 1.0 / float64(c)
	for _, id := range ids {
		p := m.walks.Path(id) // stable: ReplaceTail relocates, never mutates
		pos := -1
		for i := 0; i < len(p)-1 && pos < 0; i++ {
			if p[i] != u || p[i+1] != v {
				continue
			}
			if c == 1 || w.rng.Float64() < inv {
				pos = i
			}
		}
		if pos < 0 {
			continue
		}
		if m.resample(id, pos+1, u, d, w) {
			rerouted++
		} else {
			truncated++
		}
	}
	return rerouted, truncated
}

// unrouteScanIndexed is unrouteScan over the frozen pending-position hits of
// u: a hit is a candidate iff it is non-terminal and its next node is v. Hits
// arrive sorted by (segment, position) — the same enumeration the legacy scan
// walks — and superseded candidates after a segment's capture consume no
// randomness in either flavor, so both scans draw the identical coin stream.
func (m *Maintainer) unrouteScanIndexed(hits []walkstore.PosHit, v graph.NodeID, c, d int, w *updater) (rerouted, truncated int64) {
	inv := 1.0 / float64(c)
	g := 0
	for i := 0; i < len(hits); {
		id := hits[i].Seg
		j := i
		for j < len(hits) && hits[j].Seg == id {
			j++
		}
		p := groupPath(w, &g, id)
		u := p[int(hits[i].Pos)]
		pos := -1
		for _, h := range hits[i:j] {
			hp := int(h.Pos)
			if hp >= len(p)-1 || p[hp+1] != v {
				continue // terminal, or a step to some other neighbor
			}
			if pos >= 0 {
				continue // superseded by this segment's capture; no coin
			}
			if c == 1 || w.rng.Float64() < inv {
				pos = hp
			}
		}
		i = j
		if pos < 0 {
			continue
		}
		if m.resample(id, pos+1, u, d, w) {
			rerouted++
		} else {
			truncated++
		}
	}
	return rerouted, truncated
}

// resample regenerates a captured step: truncate segment id to keep nodes,
// step to a uniform surviving out-neighbor of u (no reset coin — the
// captured step had already passed its coin), and continue with a fresh
// geometric tail. With no survivors the walk terminates at u instead (the
// reverse revival); reports whether a re-sampled tail was written (false
// means truncation).
func (m *Maintainer) resample(id walkstore.SegmentID, keep int, u graph.NodeID, d int, w *updater) bool {
	if d > 0 {
		to, ok := m.soc.RandomOutNeighbor(u, w.rng)
		if ok {
			m.redirect(id, keep, to, w)
			return true
		}
		// Unreachable under the source stripe (d is the reply of a write
		// made under the same lock); fall through to truncation for safety.
	}
	m.truncate(id, keep, w)
	return false
}
