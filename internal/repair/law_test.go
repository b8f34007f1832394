package repair_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"fastppr/internal/graph"
	"fastppr/internal/pagerank"
	"fastppr/internal/salsa"
	"fastppr/internal/socialstore"
	"fastppr/internal/walkstore"
)

// The paper's correctness claim, checked directly: after any stream of
// arrivals and deletions, every stored segment is distributed exactly as a
// fresh walk on the current graph (docs/DESIGN.md §3 and §10). The bitwise
// reference tests hold the maintainers to a restatement of the repair rule;
// this test holds them to the law the rule exists to keep, so a mistake in
// the rule itself, shared by code and reference, fails here.

const (
	lawEps   = 0.3
	lawR     = 4
	lawCap   = 7 // steps; longer paths are lumped into one class
	lawZ     = 4 // worst tolerated z of one source's chi-squared statistic
	lawSeeds = 3000
)

// lawGraph is the bootstrap graph: a multi-edge 0->1, a self-loop at 2, and
// node 3 with a single out-edge.
func lawGraph() *graph.Graph {
	g := graph.New(6)
	for _, e := range [][2]graph.NodeID{{0, 1}, {0, 1}, {0, 2}, {1, 2}, {2, 0}, {2, 2}, {3, 0}, {4, 1}} {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// lawEvents deletes one of two copies, deletes node 3's last out-edge, revives
// 3 and lets it dangle again, seeds node 5 mid-stream, deletes a self-loop copy
// and re-adds deleted edges.
var lawEvents = []graph.Event{
	{Edge: graph.Edge{From: 1, To: 3}},
	{Edge: graph.Edge{From: 0, To: 1}, Del: true},
	{Edge: graph.Edge{From: 3, To: 0}, Del: true},
	{Edge: graph.Edge{From: 4, To: 0}},
	{Edge: graph.Edge{From: 3, To: 4}},
	{Edge: graph.Edge{From: 5, To: 2}},
	{Edge: graph.Edge{From: 2, To: 2}},
	{Edge: graph.Edge{From: 2, To: 5}},
	{Edge: graph.Edge{From: 3, To: 4}, Del: true},
	{Edge: graph.Edge{From: 2, To: 2}, Del: true},
	{Edge: graph.Edge{From: 0, To: 1}},
	{Edge: graph.Edge{From: 4, To: 1}, Del: true},
	{Edge: graph.Edge{From: 1, To: 4}},
}

// lawRows are the two laws a Shell runs, each through its maintainer, plus
// the pagerank law with the store compacted after every event: seed
// bootstraps g, applies lawEvents serialized and returns the store.
var lawRows = []struct {
	name  string
	sides []walkstore.Side
	run   func(g *graph.Graph, seed uint64) *walkstore.Store
}{
	{"pagerank", []walkstore.Side{walkstore.Unsided}, func(g *graph.Graph, seed uint64) *walkstore.Store {
		mt := pagerank.New(socialstore.New(g), pagerank.Config{Eps: lawEps, R: lawR, Workers: 1, Seed: seed})
		mt.Bootstrap()
		mt.ApplyEvents(lawEvents)
		return mt.Store()
	}},
	{"pagerank_compact", []walkstore.Side{walkstore.Unsided}, func(g *graph.Graph, seed uint64) *walkstore.Store {
		mt := pagerank.New(socialstore.New(g), pagerank.Config{Eps: lawEps, R: lawR, Workers: 1, Seed: seed, CompactEvery: 1})
		mt.Bootstrap()
		mt.ApplyEvents(lawEvents)
		return mt.Store()
	}},
	{"salsa", []walkstore.Side{walkstore.SideForward, walkstore.SideBackward}, func(g *graph.Graph, seed uint64) *walkstore.Store {
		mt := salsa.New(socialstore.New(g), salsa.Config{Eps: lawEps, R: lawR, Workers: 1, Seed: seed})
		mt.Bootstrap()
		mt.ApplyEvents(lawEvents)
		return mt.Store()
	}},
}

// TestRepairKeepsFreshWalkLaw pools every live segment over fixed seeds and
// runs one chi-squared test per (source, side) against the exact law of a
// fresh walk on the final graph. Any stored path the final graph cannot
// produce fails it too.
func TestRepairKeepsFreshWalkLaw(t *testing.T) {
	seeds := lawSeeds
	if testing.Short() {
		seeds = lawSeeds / 3
	}
	for _, row := range lawRows {
		t.Run(row.name, func(t *testing.T) {
			final := lawGraph()
			for _, ev := range lawEvents {
				if ev.Del {
					final.RemoveEdge(ev.Edge.From, ev.Edge.To)
				} else {
					final.AddEdge(ev.Edge.From, ev.Edge.To)
				}
			}
			type class struct {
				v    graph.NodeID
				side walkstore.Side
			}
			counts := map[class]map[string]int{}
			impossible, example := 0, ""
			for seed := 1; seed <= seeds; seed++ {
				d, err := row.run(lawGraph(), uint64(seed)).Dump()
				if err != nil {
					t.Fatal(err)
				}
				for _, sd := range d.Segs {
					if !sd.Live {
						continue
					}
					if lawProb(final, sd.Path, sd.Side) == 0 {
						if impossible++; impossible == 1 {
							example = fmt.Sprintf("seed %d, side %d: %v", seed, sd.Side, sd.Path)
						}
					}
					c := class{sd.Path[0], sd.Side}
					if counts[c] == nil {
						counts[c] = map[string]int{}
					}
					counts[c][lawKey(sd.Path)]++
				}
			}
			if impossible > 0 {
				t.Errorf("%d live segments are impossible on the final graph, first %s", impossible, example)
			}
			worst := math.Inf(-1)
			for _, v := range final.Nodes() {
				for _, side := range row.sides {
					got := counts[class{v, side}]
					want, over := lawEnumerate(final, v, side)
					z, df := chiSquaredZ(got, want, over)
					worst = max(worst, z)
					if z > lawZ {
						t.Errorf("source %d side %d: z = %.1f over %d degrees of freedom", v, side, z, df)
					}
				}
			}
			t.Logf("worst z = %.2f over %d seeds", worst, seeds)
		})
	}
}

// lawKey renders a path, or the lump of every path longer than lawCap steps.
func lawKey(p []graph.NodeID) string {
	if len(p)-1 > lawCap {
		return "long"
	}
	return fmt.Sprint(p)
}

// pending reports whether the step after position i of a walk starting on
// side follows an in-edge, and whether a reset coin precedes it.
func pending(side walkstore.Side, i int) (in, coin bool) {
	if side == walkstore.Unsided {
		return false, true
	}
	in = side.PendingAt(i) == walkstore.SideBackward
	return in, !in
}

// lawEnumerate returns the exact law of one fresh walk from v starting on
// side over g: the probability of every path of at most lawCap steps, by
// lawKey, and the mass of the longer ones. A step leaves x along one of its
// out-edges (in-edges when pending backward) chosen uniformly from the edge
// multiset, after a reset coin of probability lawEps where one applies; a
// walk with no edge to take ends.
func lawEnumerate(g *graph.Graph, v graph.NodeID, side walkstore.Side) (map[string]float64, float64) {
	law := map[string]float64{}
	var over float64
	var walk func(p []graph.NodeID, mass float64)
	walk = func(p []graph.NodeID, mass float64) {
		x := p[len(p)-1]
		in, coin := pending(side, len(p)-1)
		nbrs := g.OutNeighbors(x)
		if in {
			nbrs = g.InNeighbors(x)
		}
		stay := 1.0
		if coin {
			stay = 1 - lawEps
		}
		if len(nbrs) == 0 {
			stay = 0
		}
		law[lawKey(p)] += mass * (1 - stay)
		for _, y := range nbrs {
			next := mass * stay / float64(len(nbrs))
			if len(p) > lawCap {
				over += next
				continue
			}
			walk(append(slices.Clip(p), y), next)
		}
	}
	walk([]graph.NodeID{v}, 1)
	return law, over
}

// lawProb returns the probability of path p from a walk starting on side
// over g, or 0 when g cannot produce it.
func lawProb(g *graph.Graph, p []graph.NodeID, side walkstore.Side) float64 {
	prob := 1.0
	for i, x := range p {
		in, coin := pending(side, i)
		deg := g.OutDegree(x)
		if in {
			deg = g.InDegree(x)
		}
		stay := 1.0
		if coin {
			stay = 1 - lawEps
		}
		if i == len(p)-1 {
			if deg == 0 {
				return prob
			}
			return prob * (1 - stay)
		}
		m := g.CountEdges(x, p[i+1])
		if in {
			m = g.CountEdges(p[i+1], x)
		}
		prob *= stay * float64(m) / float64(deg)
	}
	return prob
}

// chiSquaredZ compares the observed path counts with the exact law, pooling
// classes expected fewer than five times into one, and returns the
// statistic as a z-score, (chi2 - df) / sqrt(2 df), with its degrees of
// freedom.
func chiSquaredZ(got map[string]int, law map[string]float64, over float64) (z float64, df int) {
	n := 0
	for _, c := range got {
		n += c
	}
	law["long"] += over
	var chi2, rareWant float64
	var rareGot, classes int
	for k, p := range law {
		want := p * float64(n)
		if want < 5 {
			rareWant += want
			rareGot += got[k]
			continue
		}
		d := float64(got[k]) - want
		chi2 += d * d / want
		classes++
	}
	if rareWant > 0 {
		// The pool's own expectation may be below one; a floor of one keeps
		// a single rare path from reading as a gross misfit.
		d := float64(rareGot) - rareWant
		chi2 += d * d / max(rareWant, 1)
		classes++
	}
	df = max(classes-1, 1)
	return (chi2 - float64(df)) / math.Sqrt(2*float64(df)), df
}
