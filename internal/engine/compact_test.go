package engine

import (
	"math/rand/v2"
	"testing"

	"fastppr/internal/gen"
	"fastppr/internal/graph"
	"fastppr/internal/repair"
	"fastppr/internal/walkstore"
)

// TestApplyWindowCompactEveryBitwise pins the engine's compaction trigger:
// the serialized sliding-window driver with CompactEvery firing during the
// stream must produce bitwise-identical stats and store contents to the run
// that never compacts, and the compacting run's arena must end dense at the
// last trigger point modulo the tail of the stream.
func TestApplyWindowCompactEveryBitwise(t *testing.T) {
	const n, m, capacity = 60, 400, 120
	run := func(compactEvery int) (WindowStats, *walkstore.Store) {
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddNode(graph.NodeID(i))
		}
		store := walkstore.New()
		eng := New(g, store, Config{Eps: 0.2, R: 3, Workers: 1, Seed: 41, CompactEvery: compactEvery})
		eng.BuildStore(g.Nodes())
		rng := rand.New(rand.NewPCG(42, 0))
		stream := gen.DirichletStream(n, m, rng)
		stats := eng.ApplyWindow(stream, capacity, 43)
		if err := store.Validate(); err != nil {
			t.Fatalf("CompactEvery=%d: %v", compactEvery, err)
		}
		if err := store.ValidateSteps(g.HasEdge); err != nil {
			t.Fatalf("CompactEvery=%d: %v", compactEvery, err)
		}
		return stats, store
	}

	stats0, store0 := run(0)
	statsC, storeC := run(5)
	if stats0 != statsC {
		t.Fatalf("window stats diverged:\noff %+v\non  %+v", stats0, statsC)
	}
	if e0, eC := store0.Epoch(), storeC.Epoch(); e0 != eC {
		t.Fatalf("store epochs diverged: %d vs %d", e0, eC)
	}
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		if a, b := store0.Visits(id), storeC.Visits(id); a != b {
			t.Fatalf("Visits(%d): %d vs %d", v, a, b)
		}
		if a, b := store0.Terminals(id), storeC.Terminals(id); a != b {
			t.Fatalf("Terminals(%d): %d vs %d", v, a, b)
		}
	}
	// Both stores hold the same segments (BuildStore assigns IDs
	// deterministically with the same inputs); their paths must match too.
	for v := 0; v < n; v++ {
		ids := store0.OwnedBy(graph.NodeID(v))
		idsC := storeC.OwnedBy(graph.NodeID(v))
		if len(ids) != len(idsC) {
			t.Fatalf("OwnedBy(%d): %v vs %v", v, ids, idsC)
		}
		for i, id := range ids {
			if id != idsC[i] {
				t.Fatalf("OwnedBy(%d)[%d]: %d vs %d", v, i, id, idsC[i])
			}
			p0 := store0.Path(id)
			pC := storeC.Path(id)
			if len(p0) != len(pC) {
				t.Fatalf("Path(%d) lengths: %d vs %d", id, len(p0), len(pC))
			}
			for j := range p0 {
				if p0[j] != pC[j] {
					t.Fatalf("Path(%d)[%d]: %d vs %d", id, j, p0[j], pC[j])
				}
			}
		}
	}
	// The compacting run actually reclaimed garbage: its arena must be no
	// larger than the non-compacting run's, and strictly smaller given the
	// churn a 3x-overcapacity stream generates.
	_, total0 := store0.ArenaStats()
	liveC, totalC := storeC.ArenaStats()
	if totalC >= total0 {
		t.Fatalf("compacting run's arena (%d) not smaller than baseline (%d)", totalC, total0)
	}
	if liveC > totalC {
		t.Fatalf("ArenaStats live=%d > total=%d", liveC, totalC)
	}
}

// TestUpdStateScratchReleased pins the end-of-phase contract of a worker's
// scratch: frozen paths alias the store's arena and staged tails alias the
// worker's tail buffer, so once an arrival or deletion has flushed neither
// may survive anywhere in the scratch slices' capacity.
func TestUpdStateScratchReleased(t *testing.T) {
	const n = 60
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i))
	}
	store := walkstore.New()
	eng := New(g, store, Config{Eps: 0.2, R: 3, Workers: 1, Seed: 41})
	eng.BuildStore(g.Nodes())
	rng := rand.New(rand.NewPCG(42, 0))
	stream := gen.DirichletStream(n, 400, rng)
	w := repair.NewWorker(rng, g)
	var added UpdateStats
	var deleted DeleteStats
	for i, ed := range stream {
		d, _ := g.AddEdge(ed.From, ed.To)
		eng.applyOne(ed, d, w, &added)
		if i%3 == 2 {
			d, _, left, _ := g.RemoveEdge(ed.From, ed.To)
			eng.deleteOne(ed, left+1, d, w, &deleted)
		}
	}
	paths, tms := w.Scratch()
	if len(paths) == 0 || len(tms) == 0 {
		t.Fatalf("stream never used the scratch: cap(paths)=%d cap(tms)=%d", len(paths), len(tms))
	}
	for i, p := range paths {
		if p != nil {
			t.Fatalf("paths[%d] of %d still holds a %d-node arena path after the phase ended", i, len(paths), len(p))
		}
	}
	for i, tm := range tms {
		if tm.NewTail != nil {
			t.Fatalf("tms[%d] of %d still holds a staged tail after the flush", i, len(tms))
		}
	}
	if err := store.Validate(); err != nil {
		t.Fatal(err)
	}
}
