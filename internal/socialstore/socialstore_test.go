package socialstore

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"

	"fastppr/internal/gen"
	"fastppr/internal/graph"
)

func TestCallAccountingExactCounts(t *testing.T) {
	g := graph.New(0)
	s := New(g, WithShards(4))
	rng := rand.New(rand.NewPCG(1, 0))

	s.AddEdge(1, 2)
	s.AddEdge(1, 3)
	s.AddEdge(2, 3)
	if _, _, _, ok := s.RemoveEdge(2, 3); !ok {
		t.Fatal("RemoveEdge of existing edge reported false")
	}
	if _, _, _, ok := s.RemoveEdge(9, 9); ok {
		t.Fatal("RemoveEdge of absent edge reported true")
	}

	s.OutNeighbors(1)
	s.InNeighbors(3)
	s.OutDegree(1)
	s.RandomOutNeighbor(1, rng)
	s.RandomInNeighbor(3, rng)
	s.CountFetch()
	s.CountFetch()

	m := s.Metrics()
	if m.Writes != 5 {
		t.Fatalf("Writes=%d want 5", m.Writes)
	}
	if m.Reads != 5 {
		t.Fatalf("Reads=%d want 5", m.Reads)
	}
	if m.Fetches != 2 {
		t.Fatalf("Fetches=%d want 2", m.Fetches)
	}
	if len(m.PerShardReads) != 4 {
		t.Fatalf("PerShardReads has %d shards, want 4", len(m.PerShardReads))
	}
	var sum int64
	for _, r := range m.PerShardReads {
		sum += r
	}
	if sum != m.Reads {
		t.Fatalf("PerShardReads sum=%d, Reads=%d", sum, m.Reads)
	}

	s.ResetMetrics()
	m = s.Metrics()
	if m.Reads != 0 || m.Writes != 0 || m.Fetches != 0 || m.SimulatedLatency != 0 {
		t.Fatalf("metrics after reset: %+v", m)
	}
	for _, r := range m.PerShardReads {
		if r != 0 {
			t.Fatalf("per-shard reads after reset: %v", m.PerShardReads)
		}
	}
}

// TestConcurrentAccounting hammers the counters from many goroutines (run
// under -race): totals must be exact and the shard breakdown must sum to the
// global read counter.
func TestConcurrentAccounting(t *testing.T) {
	g := graph.New(0)
	for i := 0; i < 64; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%64))
	}
	s := New(g, WithShards(8))
	const workers = 8
	const readsPer = 500
	const writesPer = 50
	const fetchesPer = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 0))
			for i := 0; i < readsPer; i++ {
				v := graph.NodeID(rng.IntN(64))
				switch i % 3 {
				case 0:
					s.OutDegree(v)
				case 1:
					s.OutNeighbors(v)
				default:
					s.RandomOutNeighbor(v, rng)
				}
			}
			for i := 0; i < writesPer; i++ {
				s.AddEdge(graph.NodeID(rng.IntN(64)), graph.NodeID(64+rng.IntN(64)))
			}
			for i := 0; i < fetchesPer; i++ {
				s.CountFetch()
			}
		}(w)
	}
	wg.Wait()

	m := s.Metrics()
	if m.Reads != workers*readsPer {
		t.Fatalf("Reads=%d want %d", m.Reads, workers*readsPer)
	}
	if m.Writes != workers*writesPer {
		t.Fatalf("Writes=%d want %d", m.Writes, workers*writesPer)
	}
	if m.Fetches != workers*fetchesPer {
		t.Fatalf("Fetches=%d want %d", m.Fetches, workers*fetchesPer)
	}
	var sum int64
	for _, r := range m.PerShardReads {
		sum += r
	}
	if sum != m.Reads {
		t.Fatalf("PerShardReads sum=%d, Reads=%d", sum, m.Reads)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSimulatedLatencyAccrual(t *testing.T) {
	g := graph.New(0)
	const perCall = 3 * time.Millisecond
	s := New(g, WithSimulatedLatency(perCall))
	s.AddEdge(1, 2)   // 1 write
	s.OutDegree(1)    // 1 read
	s.OutNeighbors(1) // 1 read
	s.CountFetch()    // 1 fetch
	if _, _, _, ok := s.RemoveEdge(1, 2); !ok {
		t.Fatal("RemoveEdge failed")
	} // 1 write
	want := 5 * perCall
	if got := s.Metrics().SimulatedLatency; got != want {
		t.Fatalf("SimulatedLatency=%v want %v", got, want)
	}
	// No latency configured: stays zero.
	s2 := New(g)
	s2.OutDegree(1)
	if got := s2.Metrics().SimulatedLatency; got != 0 {
		t.Fatalf("latency accrued without option: %v", got)
	}
}

// TestZeroDriftAgainstGraph checks that every read the store serves is
// byte-identical to asking the wrapped graph directly.
func TestZeroDriftAgainstGraph(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	g := gen.PreferentialAttachment(200, 4, rng)
	s := New(g)
	for _, v := range g.Nodes() {
		if got, want := s.OutDegree(v), g.OutDegree(v); got != want {
			t.Fatalf("OutDegree(%d)=%d graph says %d", v, got, want)
		}
		if got, want := s.OutNeighbors(v), g.OutNeighbors(v); !slices.Equal(got, want) {
			t.Fatalf("OutNeighbors(%d)=%v graph says %v", v, got, want)
		}
		if got, want := s.InNeighbors(v), g.InNeighbors(v); !slices.Equal(got, want) {
			t.Fatalf("InNeighbors(%d)=%v graph says %v", v, got, want)
		}
		if outs := g.OutNeighbors(v); len(outs) > 0 {
			w, ok := s.RandomOutNeighbor(v, rng)
			if !ok || !slices.Contains(outs, w) {
				t.Fatalf("RandomOutNeighbor(%d)=%d ok=%v not in %v", v, w, ok, outs)
			}
		} else {
			if _, ok := s.RandomOutNeighbor(v, rng); ok {
				t.Fatalf("RandomOutNeighbor(%d) ok on dangling node", v)
			}
		}
	}
	// Mutations through the store land in the graph.
	s.AddEdge(1000, 1001)
	if !g.HasEdge(1000, 1001) {
		t.Fatal("AddEdge through store did not reach the graph")
	}
}

func TestGraphAccessor(t *testing.T) {
	g := graph.New(0)
	if s := New(g); s.Graph() != g {
		t.Fatal("Graph() does not return the wrapped graph")
	}
}

// TestSnapshotDeltas checks the per-query accounting primitive: snapshot
// differences must count exactly the calls made between them, the way the
// personalized query layer brackets each query.
func TestSnapshotDeltas(t *testing.T) {
	g := graph.New(0)
	g.AddEdge(1, 2)
	g.AddEdge(3, 2)
	s := New(g)
	rng := rand.New(rand.NewPCG(11, 0))

	pre := s.Snapshot()
	s.OutDegree(1)              // read
	s.InDegree(2)               // read
	s.RandomInNeighbor(2, rng)  // read
	s.RandomOutNeighbor(1, rng) // read
	s.AddEdge(2, 4)             // write
	s.CountFetch()              // fetch
	d := s.Snapshot().Sub(pre)
	if d.Reads != 4 || d.Writes != 1 || d.Fetches != 1 {
		t.Fatalf("delta=%+v want reads=4 writes=1 fetches=1", d)
	}
	if d.Calls() != 6 {
		t.Fatalf("Calls()=%d want 6", d.Calls())
	}
	// Snapshot agrees with the full Metrics view.
	m := s.Metrics()
	cur := s.Snapshot()
	if m.Reads != cur.Reads || m.Writes != cur.Writes || m.Fetches != cur.Fetches {
		t.Fatalf("Snapshot %+v disagrees with Metrics %+v", cur, m)
	}
}

// TestWriteReplyReplacesReads pins what a write costs and returns: one write
// and no read, hit or miss, and a reply equal to the reads it replaces —
// OutDegree(u) and InDegree(v) after an AddEdge; those plus CountEdges(u, v)
// after a RemoveEdge.
func TestWriteReplyReplacesReads(t *testing.T) {
	s := New(graph.New(0))
	rng := rand.New(rand.NewPCG(13, 0))
	for i := 0; i < 400; i++ {
		u, v := graph.NodeID(rng.IntN(12)), graph.NodeID(rng.IntN(12))
		pre := s.Snapshot()
		if rng.IntN(3) == 0 {
			out, in, left, ok := s.RemoveEdge(u, v)
			if d := s.Snapshot().Sub(pre); d.Writes != 1 || d.Reads != 0 {
				t.Fatalf("RemoveEdge(%d, %d) cost %+v, want one write and no read", u, v, d)
			}
			if !ok {
				if out != 0 || in != 0 || left != 0 {
					t.Fatalf("RemoveEdge(%d, %d) missed but replied (%d, %d, %d)", u, v, out, in, left)
				}
				continue
			}
			if wo, wi, wl := s.OutDegree(u), s.InDegree(v), s.CountEdges(u, v); out != wo || in != wi || left != wl {
				t.Fatalf("RemoveEdge(%d, %d) replied (%d, %d, %d), reads say (%d, %d, %d)", u, v, out, in, left, wo, wi, wl)
			}
			continue
		}
		out, in := s.AddEdge(u, v)
		if d := s.Snapshot().Sub(pre); d.Writes != 1 || d.Reads != 0 {
			t.Fatalf("AddEdge(%d, %d) cost %+v, want one write and no read", u, v, d)
		}
		if wo, wi := s.OutDegree(u), s.InDegree(v); out != wo || in != wi {
			t.Fatalf("AddEdge(%d, %d) replied (%d, %d), reads say (%d, %d)", u, v, out, in, wo, wi)
		}
	}
}

// TestInDegreeReadThrough checks the in-degree read the SALSA maintainer's
// straggler sweep relies on.
func TestInDegreeReadThrough(t *testing.T) {
	g := graph.New(0)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	s := New(g)
	pre := s.Snapshot()
	if got := s.InDegree(3); got != 2 {
		t.Fatalf("InDegree(3)=%d want 2", got)
	}
	if got := s.InDegree(1); got != 0 {
		t.Fatalf("InDegree(1)=%d want 0", got)
	}
	if d := s.Snapshot().Sub(pre); d.Reads != 2 {
		t.Fatalf("2 in-degree lookups recorded %d reads", d.Reads)
	}
}

// TestSessionAccounting pins the per-caller accounting view: a session's
// tally must count exactly its own calls while still flowing into the
// store's global counters — the property that keeps per-query Theorem 8
// accounting exact when multiple callers share one store.
func TestSessionAccounting(t *testing.T) {
	g := graph.New(0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	s := New(g)
	rng := rand.New(rand.NewPCG(5, 0))

	pre := s.Snapshot()
	sess := s.NewSession()
	sess.RandomOutNeighbor(1, rng)
	sess.RandomInNeighbor(2, rng)
	sess.OutDegree(2)
	sess.InDegree(3)
	sess.CountFetch()
	// Interleaved calls from another caller must not leak into the session.
	s.OutDegree(1)
	s.RandomOutNeighbor(2, rng)

	local := sess.Snapshot()
	if local.Reads != 4 || local.Fetches != 1 || local.Writes != 0 {
		t.Fatalf("session tally=%+v want reads=4 fetches=1 writes=0", local)
	}
	global := s.Snapshot().Sub(pre)
	if global.Reads != 6 || global.Fetches != 1 {
		t.Fatalf("global delta=%+v want reads=6 fetches=1", global)
	}
}

// TestSessionsConcurrent runs many sessions against one store under -race:
// each session's tally must equal its own call count exactly, and the
// global counters must equal the sum.
func TestSessionsConcurrent(t *testing.T) {
	g := graph.New(0)
	for i := 0; i < 32; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%32))
	}
	s := New(g)
	const sessions = 8
	const calls = 500
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(i), 9))
			sess := s.NewSession()
			for k := 0; k < calls; k++ {
				sess.RandomOutNeighbor(graph.NodeID(rng.IntN(32)), rng)
			}
			if got := sess.Snapshot().Reads; got != calls {
				t.Errorf("session %d tallied %d reads, want %d", i, got, calls)
			}
		}(i)
	}
	wg.Wait()
	if got := s.Snapshot().Reads; got != sessions*calls {
		t.Fatalf("global reads=%d want %d", got, sessions*calls)
	}
}
