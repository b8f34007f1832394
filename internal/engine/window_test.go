package engine

import (
	"math/rand/v2"
	"testing"

	"fastppr/internal/gen"
	"fastppr/internal/graph"
	"fastppr/internal/walkstore"
)

// TestApplyDeletionsMaintainsInvariants streams a churn sequence through the
// engine's deletion path: the store recount and the missing-edge-step
// invariant must hold, and the delete accounting must balance the store's
// visit totals.
func TestApplyDeletionsMaintainsInvariants(t *testing.T) {
	g := buildTestGraph(300, 4, 11)
	nodes := g.Nodes()
	store := walkstore.New()
	eng := New(g, store, Config{Eps: 0.2, R: 3, Workers: 4, Batch: 16, Seed: 12})
	eng.BuildStore(nodes)
	before := store.TotalVisits()

	// Delete a third of the edges, in a shuffled order.
	rng := rand.New(rand.NewPCG(13, 0))
	edges := gen.RandomPermutationStream(g, rng)
	dels := edges[:len(edges)/3]
	stats := eng.ApplyDeletions(dels, 14)

	if stats.Edges != len(dels) {
		t.Fatalf("applied %d deletions, want %d (misses=%d)", stats.Edges, len(dels), stats.Missed)
	}
	if stats.Rerouted+stats.Truncated == 0 {
		t.Fatal("deleting a third of the graph repaired nothing")
	}
	if err := store.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := store.ValidateSteps(g.HasEdge); err != nil {
		t.Fatal(err)
	}
	if got, want := store.TotalVisits(), before-stats.StepsOut+stats.StepsIn; got != want {
		t.Fatalf("TotalVisits=%d, accounting says %d", got, want)
	}
}

// TestApplyDeletionsSweepRevisitsOnlySuspects runs the engine's lock-free
// parallel deletion batches with four workers on small dense graphs over
// twenty seeds, refilling the graph through ApplyEdges between batches. With
// no source lock, even a resample's first step can race a deletion, so every
// sample goes through a worker's recorder. After every batch no stored step
// may cross a missing edge, and the sweep may have re-repaired only suspects:
// distinct deleted edges some sampled step was recorded on.
func TestApplyDeletionsSweepRevisitsOnlySuspects(t *testing.T) {
	rounds := 6
	if testing.Short() {
		rounds = 3
	}
	var suspects, swept int
	for seed := uint64(1); seed <= 20; seed++ {
		const n = 12
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddNode(graph.NodeID(i))
		}
		store := walkstore.New()
		eng := New(g, store, Config{Eps: 0.15, R: 10, Workers: 4, Seed: seed})
		eng.BuildStore(g.Nodes())
		rng := rand.New(rand.NewPCG(seed, 91))
		for round := 0; round < rounds; round++ {
			var adds []graph.Edge
			for len(adds) < 60 {
				if u, v := graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n)); u != v {
					adds = append(adds, graph.Edge{From: u, To: v})
				}
			}
			eng.ApplyEdges(adds, seed<<8|uint64(2*round))
			// Delete half of the graph's edges, copies included, in random order.
			edges := gen.RandomPermutationStream(g, rng)
			dels := edges[:len(edges)/2]
			distinct := map[graph.Edge]bool{}
			for _, ed := range dels {
				distinct[ed] = true
			}
			stats := eng.ApplyDeletions(dels, seed<<8|uint64(2*round+1))
			if stats.Edges != len(dels) {
				t.Fatalf("seed %d round %d: applied %d of %d deletions", seed, round, stats.Edges, len(dels))
			}
			if err := store.Validate(); err != nil {
				t.Fatal(err)
			}
			if err := store.ValidateSteps(g.HasEdge); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			if stats.Swept > stats.Suspects || stats.Suspects > len(distinct) {
				t.Fatalf("seed %d round %d: swept %d of %d suspects, %d distinct deletions", seed, round, stats.Swept, stats.Suspects, len(distinct))
			}
			suspects += stats.Suspects
			swept += stats.Swept
		}
	}
	if suspects == 0 {
		t.Fatal("no sampled step ever landed on a deleted edge: the sweep went unexercised")
	}
	t.Logf("%d suspects, %d swept", suspects, swept)
}

// TestApplyWindowHoldsExactlyTheWindow pins the sliding-window driver: after
// streaming m arrivals through a capacity-c window over an edgeless start,
// the graph holds exactly the last min(c, m) arrivals and the stored walks
// only traverse surviving edges.
func TestApplyWindowHoldsExactlyTheWindow(t *testing.T) {
	const n, m, capacity = 80, 600, 150
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i))
	}
	store := walkstore.New()
	eng := New(g, store, Config{Eps: 0.2, R: 3, Workers: 1, Seed: 21})
	eng.BuildStore(g.Nodes())

	rng := rand.New(rand.NewPCG(22, 0))
	stream := gen.DirichletStream(n, m, rng)
	stats := eng.ApplyWindow(stream, capacity, 23)

	if stats.Arrived != m {
		t.Fatalf("Arrived=%d want %d", stats.Arrived, m)
	}
	if stats.Expired != m-capacity {
		t.Fatalf("Expired=%d want %d", stats.Expired, m-capacity)
	}
	if got, want := stats.Turnover(), float64(m-capacity)/float64(m); got != want {
		t.Fatalf("Turnover=%v want %v", got, want)
	}
	if stats.Delete.Missed != 0 {
		t.Fatalf("window expiry missed %d edges it had inserted itself", stats.Delete.Missed)
	}
	if got := g.NumEdges(); got != capacity {
		t.Fatalf("graph holds %d edges, want the window's %d", got, capacity)
	}
	// The surviving edges are exactly the stream's suffix (as a multiset).
	want := map[graph.Edge]int{}
	for _, ed := range stream[m-capacity:] {
		want[ed]++
	}
	for ed, k := range want {
		if got := g.CountEdges(ed.From, ed.To); got != k {
			t.Fatalf("edge %v multiplicity %d, want %d", ed, got, k)
		}
	}
	if err := store.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := store.ValidateSteps(g.HasEdge); err != nil {
		t.Fatal(err)
	}
}

// TestApplyWindowNeverEvictsUnderCapacity checks the no-expiry regime: a
// stream shorter than the window deletes nothing.
func TestApplyWindowNeverEvictsUnderCapacity(t *testing.T) {
	const n = 40
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i))
	}
	store := walkstore.New()
	eng := New(g, store, Config{Eps: 0.25, R: 2, Workers: 1, Seed: 31})
	eng.BuildStore(g.Nodes())

	rng := rand.New(rand.NewPCG(32, 0))
	stream := gen.DirichletStream(n, 100, rng)
	stats := eng.ApplyWindow(stream, 500, 33)
	if stats.Expired != 0 || stats.Delete.Edges != 0 {
		t.Fatalf("under-capacity stream expired edges: %+v", stats)
	}
	if stats.Turnover() != 0 {
		t.Fatalf("Turnover=%v want 0", stats.Turnover())
	}
	if got := g.NumEdges(); got != 100 {
		t.Fatalf("graph holds %d edges, want all 100 streamed", got)
	}
}
