package engine

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"fastppr/internal/graph"
	"fastppr/internal/walk"
	"fastppr/internal/walkstore"
)

// DeleteStats aggregates the work done by an ApplyDeletions run.
type DeleteStats struct {
	Edges     int   // deletions applied (edge found and removed)
	Missed    int   // deletions of edges not present
	Rerouted  int64 // segments re-sampled through a surviving out-edge
	Truncated int64 // segments cut short by the reverse revival
	StepsIn   int64 // visits added by re-sampled tails
	StepsOut  int64 // visits removed
	Candidate int64 // stored steps through the removed edge examined
	Suspects  int   // distinct deleted edges a parallel batch's regrown tails stepped on
	Swept     int   // suspects still absent after the barrier, re-repaired with c = 1
}

func (d *DeleteStats) add(o DeleteStats) {
	d.Edges += o.Edges
	d.Missed += o.Missed
	d.Suspects += o.Suspects
	d.Swept += o.Swept
	d.Rerouted += o.Rerouted
	d.Truncated += o.Truncated
	d.StepsIn += o.StepsIn
	d.StepsOut += o.StepsOut
	d.Candidate += o.Candidate
}

// ApplyDeletions replays edge deletions through the reverse reroute rule
// using the worker pool: for each deleted edge (u, v) with pre-removal
// multiplicity c and d surviving out-edges of u, every stored step u -> v
// used the removed copy with probability 1/c; a captured step keeps its
// prefix, re-steps to a uniform surviving out-neighbor (no reset coin — the
// captured step had already passed its coin) and continues with a fresh
// geometric tail on the new graph. With d == 0 the walk terminates at u
// instead — the revival law run in reverse. Distinct deletions proceed in
// parallel; mutations of the same segment are serialized by SegmentID stripe
// locks. Each deletion's c and d come from its own removal's reply, exact
// however the workers interleave.
//
// One interleaving needs more than the stripe locks: a tail regrown by a
// concurrent repair can sample the removed edge just before it leaves the
// graph and index the step just after this deletion's scan, stranding a
// stored step through a missing edge. The engine holds no source lock, so
// every sample a worker takes — a resample's first step included — goes
// through its walk.Recorder watching the batch's edges, and the serialized
// straggler sweep after the barrier re-repairs each recorded edge still
// absent — with pre-removal multiplicity 1, so deleteOne re-captures every
// surviving traversal deterministically. The missing-edge-step invariant
// holds whenever ApplyDeletions returns.
func (e *Engine) ApplyDeletions(edges []graph.Edge, seed uint64) DeleteStats {
	cfg := e.cfg
	var watch walk.EdgeSet
	if cfg.Workers > 1 {
		watch = walk.NewEdgeSet(edges)
	}
	recs := make([]*walk.Recorder, cfg.Workers)
	var cursor atomic.Int64
	var stats DeleteStats
	var statsMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		var nb walk.Neighborer = e.g
		if watch != nil {
			recs[w] = walk.NewRecorder(e.g, watch)
			nb = recs[w]
		}
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(worker)))
			var local DeleteStats
			var st updState
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(edges) {
					break
				}
				ed := edges[i]
				d, _, left, ok := e.g.RemoveEdge(ed.From, ed.To)
				if !ok {
					local.Missed++
					continue
				}
				local.Edges++
				e.deleteOne(ed, left+1, d, nb, rng, &st, &local)
			}
			statsMu.Lock()
			stats.add(local)
			statsMu.Unlock()
		}(w)
	}
	wg.Wait()
	if cfg.Workers > 1 {
		e.sweepStragglers(walk.Distinct(recs), seed, &stats)
	}
	return stats
}

// sweepStragglers is the serialized pass after a parallel deletion batch: for
// each suspect — a deleted edge some worker's sample stepped on — still
// absent from the graph, re-run the repair with c = 1, so any straggler step
// through it, indexed by a racing repair after the deleting worker's scan,
// is captured deterministically. Suspects re-present at sweep time (a
// surviving multi-edge copy) are skipped, their stored steps being legal.
// The graph is static here, so fresh tails cannot strand new steps.
func (e *Engine) sweepStragglers(suspects []graph.Edge, seed uint64, stats *DeleteStats) {
	rng := rand.New(rand.NewPCG(seed, uint64(e.cfg.Workers)))
	var st updState
	stats.Suspects += len(suspects)
	for _, ed := range suspects {
		if e.g.HasEdge(ed.From, ed.To) {
			continue
		}
		stats.Swept++
		e.deleteOne(ed, 1, e.g.OutDegree(ed.From), e.g, rng, &st, stats)
	}
}

// deleteOne repairs the stored segments affected by one removed edge; the
// caller has already removed it from the graph (so fresh tails sample the
// post-removal graph) and passes its pre-removal multiplicity c and u's
// surviving out-degree d. Every sample goes through nb. Same
// probe/freeze/re-read scheme as applyOne.
func (e *Engine) deleteOne(ed graph.Edge, c, d int, nb walk.Neighborer, rng *rand.Rand, st *updState, stats *DeleteStats) {
	u, v := ed.From, ed.To
	inv := 1.0 / float64(c)
	st.hits = e.store.AppendPendingPositions(st.hits[:0], u, walkstore.Unsided)
	if len(st.hits) == 0 {
		return
	}
	st.segs = walkstore.DistinctSegments(st.segs, st.hits)
	st.keys = st.keys[:0]
	for _, id := range st.segs {
		st.keys = append(st.keys, uint64(id))
	}
	st.idx = e.segMu.LockKeys(st.keys, st.idx)
	defer e.segMu.UnlockSet(st.idx)
	defer e.flushMuts(st, &stats.StepsOut, &stats.StepsIn)
	if e.cfg.Workers > 1 {
		st.hits = e.store.AppendPendingPositions(st.hits[:0], u, walkstore.Unsided)
		st.hits = walkstore.KeepSegments(st.hits, st.segs)
	}
	st.paths = e.store.AppendPaths(st.paths, st.segs)
	g := 0
	for i := 0; i < len(st.hits); {
		id := st.hits[i].Seg
		j := i
		for j < len(st.hits) && st.hits[j].Seg == id {
			j++
		}
		group := st.hits[i:j]
		i = j
		for st.segs[g] != id {
			g++
		}
		path := st.paths[g]
		capture := -1
		for _, h := range group {
			// Candidates are the stored non-terminal steps through the
			// removed edge.
			if int(h.Pos) >= len(path)-1 || path[h.Pos+1] != v {
				continue
			}
			stats.Candidate++
			if c == 1 || rng.Float64() < inv {
				capture = int(h.Pos)
				break
			}
		}
		if capture < 0 {
			continue
		}
		resampled := false
		if d > 0 {
			if to, ok := nb.RandomOutNeighbor(u, rng); ok {
				start := len(st.tailBuf)
				st.tailBuf = append(st.tailBuf, to)
				st.tailBuf = walk.AppendContinue(nb, to, e.cfg.Eps, rng, st.tailBuf)
				st.muts = append(st.muts, pendingMut{id: id, keep: capture + 1, start: start, end: len(st.tailBuf)})
				stats.Rerouted++
				resampled = true
			}
		}
		if !resampled {
			st.muts = append(st.muts, pendingMut{id: id, keep: capture + 1})
			stats.Truncated++
		}
	}
}

// WindowStats aggregates one ApplyWindow run.
type WindowStats struct {
	Arrived int         // arrivals streamed through the window
	Expired int         // arrivals that slid out and were deleted
	Arrival UpdateStats // repair work done by the arrival path
	Delete  DeleteStats // repair work done by the expiry deletions
}

// Turnover returns the fraction of streamed arrivals that expired — 0 while
// the stream fits the window, approaching 1 as the stream dwarfs it.
func (s WindowStats) Turnover() float64 {
	if s.Arrived == 0 {
		return 0
	}
	return float64(s.Expired) / float64(s.Arrived)
}

// ApplyWindow streams arrivals through a sliding window of the given
// capacity: each arrival is inserted and repaired under the paper's reroute
// rule, and once the window is full each arrival expires the oldest windowed
// edge, which is fed back through the deletion path — so the graph always
// holds exactly the last min(capacity, streamed) arrivals (plus whatever it
// held before the stream). The driver is serialized and fully reproducible
// per seed.
func (e *Engine) ApplyWindow(stream []graph.Edge, capacity int, seed uint64) WindowStats {
	win := graph.NewWindow(capacity)
	rng := rand.New(rand.NewPCG(seed, 0))
	var st updState
	var stats WindowStats
	for _, ed := range stream {
		d, _ := e.g.AddEdge(ed.From, ed.To)
		stats.Arrived++
		stats.Arrival.Edges++
		e.applyOne(ed, d, rng, &st, &stats.Arrival)
		if old, ok := win.Push(ed); ok {
			d, _, left, ok := e.g.RemoveEdge(old.From, old.To)
			if !ok {
				stats.Delete.Missed++ // window edge vanished underneath us
				continue
			}
			stats.Expired++
			stats.Delete.Edges++
			e.deleteOne(old, left+1, d, e.g, rng, &st, &stats.Delete)
		}
		if e.cfg.CompactEvery > 0 && stats.Arrived%e.cfg.CompactEvery == 0 {
			e.store.MaybeCompact()
		}
	}
	// The stream end is a batch boundary too: without this, a hot-endpoint
	// stream could leave the tail's garbage (everything since the last
	// periodic check) unexamined in the post-run arena.
	if e.cfg.CompactEvery > 0 && stats.Arrived%e.cfg.CompactEvery != 0 {
		e.store.MaybeCompact()
	}
	return stats
}
