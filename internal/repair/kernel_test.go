package repair

import (
	"math/rand/v2"
	"testing"

	"fastppr/internal/gen"
	"fastppr/internal/graph"
	"fastppr/internal/walk"
	"fastppr/internal/walkstore"
)

// sides are the three index sides a phase runs on: pagerank's one and
// salsa's two.
var sides = []struct {
	name string
	side walkstore.Side
}{
	{"unsided", walkstore.Unsided},
	{"forward", walkstore.SideForward},
	{"backward", walkstore.SideBackward},
}

// seedStore stores r walks per node of g: reset walks for an unsided
// kernel, r forward-first and r backward-first alternating walks otherwise.
// It returns the store and the matching tail law.
func seedStore(g *graph.Graph, side walkstore.Side, r int, eps float64, rng *rand.Rand) (*walkstore.Store, TailLaw) {
	walks := walkstore.New()
	if side == walkstore.Unsided {
		var paths [][]graph.NodeID
		for _, v := range g.Nodes() {
			for range r {
				paths = append(paths, walk.PageRank(g, v, eps, rng).Path)
			}
		}
		walks.AddBatch(paths)
		return walks, ResetTail
	}
	for _, first := range []walk.Direction{walk.Forward, walk.Backward} {
		var paths [][]graph.NodeID
		for _, v := range g.Nodes() {
			for range r {
				paths = append(paths, walk.Salsa(g, v, first, eps, rng).Path)
			}
		}
		walks.AddBatchSided(paths, walkstore.Side(first))
	}
	return walks, AlternatingTail
}

// TestScanCountsEveryCandidate pins what Arrive's retry loop relies on: a
// scan reports every candidate slot as seen, superseded ones included, so a
// retry redraws the first switch over the enumeration the skip coin's
// exponent counted. Only parallel runs ever retry, so the maintainers'
// references cannot see this count. The self-loop makes walks revisit 0 on
// every side.
func TestScanCountsEveryCandidate(t *testing.T) {
	for _, tc := range sides {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.New(2)
			g.AddEdge(0, 0)
			g.AddEdge(0, 1)
			g.AddEdge(1, 0)
			walks, tail := seedStore(g, tc.side, 40, 0.1, rand.New(rand.NewPCG(9, 0)))
			k := New(walks, g, Config{Eps: 0.1, Tail: tail, Workers: 1})
			w := NewWorker(rand.New(rand.NewPCG(9, 1)), g)
			want := walks.PendingCandidates(0, tc.side)
			k.Freeze(w, 0, tc.side)
			first := supersedingFirst(w)
			var seen int64
			if first >= 0 {
				_, seen = k.FirstSuccessScan(w, 1, tc.side, false, 0.5, first)
			}
			k.Release(w)
			if first < 0 {
				t.Fatal("setup: no segment holds two candidates")
			}
			if seen != want {
				t.Fatalf("scan saw %d candidates, the skip coin counted %d", seen, want)
			}
		})
	}
}

// supersedingFirst returns the enumeration index of the first candidate hit
// (a non-terminal one) of w's frozen phase whose segment holds another
// candidate, or -1: drawn as the first switch, it supersedes that other
// candidate.
func supersedingFirst(w *Worker) int64 {
	idx, first := int64(0), int64(-1)
	w.Each(func(_ walkstore.SegmentID, path []graph.NodeID, hits []walkstore.PosHit) {
		var cands int64
		for _, h := range hits {
			if int(h.Pos) < len(path)-1 {
				cands++
			}
		}
		if cands >= 2 && first < 0 {
			first = idx
		}
		idx += cands
	})
	return first
}

// TestWorkerScratchReleased pins the end-of-phase contract of a worker's
// scratch: frozen paths alias the walk store's arena and staged tails alias
// the worker's tail buffer, so once Release has flushed neither may survive
// anywhere in the scratch slices' capacity — a hub-sized freeze followed by
// shorter ones used to leave its tail entries pinning an arena that Compact
// had already replaced. Each row runs a compacting churn stream through
// arrival and deletion phases on one side.
func TestWorkerScratchReleased(t *testing.T) {
	const n, eps = 60, 0.2
	for _, tc := range sides {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.New(n)
			for i := 0; i < n; i++ {
				g.AddNode(graph.NodeID(i))
			}
			walks, tail := seedStore(g, tc.side, 8, eps, rand.New(rand.NewPCG(321, 0)))
			k := New(walks, g, Config{Eps: eps, Tail: tail, Workers: 1, CompactEvery: 3})
			w := NewWorker(rand.New(rand.NewPCG(321, 1)), g)
			for _, ev := range gen.PowerLawChurnStream(n, 120, 0.9, 0.35, rand.New(rand.NewPCG(322, 0))) {
				u, v := ev.Edge.From, ev.Edge.To
				w.Reset()
				if ev.Del {
					dout, din, left, ok := g.RemoveEdge(u, v)
					switch {
					case !ok:
					case tc.side == walkstore.SideBackward:
						k.Unroute(w, v, u, tc.side, left+1, din)
					default:
						k.Unroute(w, u, v, tc.side, left+1, dout)
					}
				} else {
					dout, din := g.AddEdge(u, v)
					if tc.side == walkstore.SideBackward {
						k.Arrive(w, v, u, tc.side, din, 0)
					} else {
						k.Arrive(w, u, v, tc.side, dout, eps)
					}
				}
				k.MaybeCompact()
			}
			if cap(w.paths) == 0 || cap(w.tms) == 0 {
				t.Fatalf("stream never used the scratch: cap(paths)=%d cap(tms)=%d", cap(w.paths), cap(w.tms))
			}
			for i, p := range w.paths[:cap(w.paths)] {
				if p != nil {
					t.Fatalf("paths[%d] of %d still holds a %d-node arena path after the phase ended", i, cap(w.paths), len(p))
				}
			}
			for i, tm := range w.tms[:cap(w.tms)] {
				if tm.NewTail != nil {
					t.Fatalf("tms[%d] of %d still holds a staged tail after the flush", i, cap(w.tms))
				}
			}
			if err := walks.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
