package graph

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
)

func TestAddRemoveRoundTrip(t *testing.T) {
	g := New(0)
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	g.AddEdge(1, 2) // parallel edge
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.NumEdges(); got != 4 {
		t.Fatalf("NumEdges=%d want 4", got)
	}
	if got := g.NumNodes(); got != 3 {
		t.Fatalf("NumNodes=%d want 3", got)
	}
	if got := g.OutDegree(1); got != 3 {
		t.Fatalf("OutDegree(1)=%d want 3", got)
	}
	if got := g.InDegree(3); got != 2 {
		t.Fatalf("InDegree(3)=%d want 2", got)
	}
	if !g.HasEdge(1, 2) || g.HasEdge(3, 1) {
		t.Fatal("HasEdge wrong")
	}
	if out, in, left, ok := g.RemoveEdge(1, 2); !ok || out != 2 || in != 1 || left != 1 {
		t.Fatalf("RemoveEdge(1,2) = (%d, %d, %d, %v), want (2, 1, 1, true)", out, in, left, ok)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(1, 2) {
		t.Fatal("one parallel edge should remain")
	}
	if out, in, left, ok := g.RemoveEdge(1, 2); !ok || out != 1 || in != 0 || left != 0 {
		t.Fatalf("second RemoveEdge(1,2) = (%d, %d, %d, %v), want (1, 0, 0, true)", out, in, left, ok)
	}
	if _, _, _, ok := g.RemoveEdge(1, 2); ok {
		t.Fatal("third RemoveEdge(1,2) should report missing")
	}
	if _, _, _, ok := g.RemoveEdge(9, 9); ok {
		t.Fatal("RemoveEdge of unknown edge should report missing")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.NumEdges(); got != 2 {
		t.Fatalf("NumEdges=%d want 2", got)
	}
	// Nodes survive edge removal.
	if !g.HasNode(2) {
		t.Fatal("node 2 vanished")
	}
	wantNodes := []NodeID{1, 2, 3}
	if got := g.Nodes(); !slices.Equal(got, wantNodes) {
		t.Fatalf("Nodes=%v want %v", got, wantNodes)
	}
}

func TestShardEdgeCounters(t *testing.T) {
	g := NewWithShards(0, 8)
	if g.NumShards() != 8 {
		t.Fatalf("NumShards=%d want 8", g.NumShards())
	}
	rng := rand.New(rand.NewPCG(7, 0))
	for i := 0; i < 500; i++ {
		g.AddEdge(NodeID(rng.IntN(100)), NodeID(rng.IntN(100)))
	}
	var sum int64
	for _, c := range g.ShardEdges() {
		sum += c
	}
	if sum != int64(g.NumEdges()) {
		t.Fatalf("per-shard counters sum to %d, NumEdges=%d", sum, g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomOutNeighborDistribution(t *testing.T) {
	g := New(0)
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	rng := rand.New(rand.NewPCG(1, 2))
	seen := map[NodeID]int{}
	for i := 0; i < 2000; i++ {
		w, ok := g.RandomOutNeighbor(1, rng)
		if !ok {
			t.Fatal("node 1 has out-edges")
		}
		seen[w]++
	}
	if seen[2] == 0 || seen[3] == 0 {
		t.Fatalf("sampling never hit a neighbor: %v", seen)
	}
	if _, ok := g.RandomOutNeighbor(3, rng); ok {
		t.Fatal("dangling node should report ok=false")
	}
}

func TestBatcherMatchesSingleSampling(t *testing.T) {
	g := New(0)
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 50; i++ {
		g.AddEdge(NodeID(i), NodeID((i+1)%50))
		g.AddEdge(NodeID(i), NodeID((i+7)%50))
	}
	g.AddNode(1000) // dangling
	b := g.NewBatcher()
	cur := []NodeID{0, 13, 1000, 49, 13}
	next := make([]NodeID, len(cur))
	ok := make([]bool, len(cur))
	b.RandomOutNeighbors(cur, next, ok, rng)
	for i, v := range cur {
		if v == 1000 {
			if ok[i] {
				t.Fatal("dangling walker got a neighbor")
			}
			continue
		}
		if !ok[i] {
			t.Fatalf("walker %d at node %d got no neighbor", i, v)
		}
		if !g.HasEdge(v, next[i]) {
			t.Fatalf("sampled non-edge %d->%d", v, next[i])
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	g := New(0)
	g.AddEdge(1, 2)
	c := g.Clone()
	c.AddEdge(2, 3)
	if g.NumEdges() != 1 || c.NumEdges() != 2 {
		t.Fatalf("clone not independent: g=%d c=%d", g.NumEdges(), c.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAddEdgeReplyLinearizable has k goroutines insert edges from one fresh
// source at once (run it with -race): each insert's reply is read under the
// shard locks that made it, so the out-degrees they get back are exactly
// 1..k — no two inserts can see the same degree, and none can miss its own.
func TestAddEdgeReplyLinearizable(t *testing.T) {
	const k, rounds = 8, 50
	g := NewWithShards(0, 8)
	for r := 0; r < rounds; r++ {
		src := NodeID(1000 + r)
		got := make([]int, k)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				got[i], _ = g.AddEdge(src, NodeID(i))
			}(i)
		}
		close(start)
		wg.Wait()
		slices.Sort(got)
		for i, d := range got {
			if d != i+1 {
				t.Fatalf("round %d: replied out-degrees %v, want 1..%d", r, got, k)
			}
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentWalkersAndWriter is the race stress test: many walker
// goroutines hammer the sampling hot path (single and batched) while a
// writer mutates edges. Run with -race.
func TestConcurrentWalkersAndWriter(t *testing.T) {
	g := NewWithShards(0, 16)
	const n = 200
	for i := 0; i < n; i++ {
		g.AddEdge(NodeID(i), NodeID((i+1)%n))
		g.AddEdge(NodeID(i), NodeID((i*7+3)%n))
	}
	var walkers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		walkers.Add(1)
		go func(seed uint64) {
			defer walkers.Done()
			rng := rand.New(rand.NewPCG(seed, 0))
			b := g.NewBatcher()
			cur := make([]NodeID, 32)
			next := make([]NodeID, 32)
			ok := make([]bool, 32)
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := NodeID(rng.IntN(n))
				for step := 0; step < 20; step++ {
					w, ok := g.RandomOutNeighbor(v, rng)
					if !ok {
						break
					}
					v = w
				}
				for i := range cur {
					cur[i] = NodeID(rng.IntN(n))
				}
				b.RandomOutNeighbors(cur, next, ok, rng)
			}
		}(uint64(w) + 1)
	}
	// The writer runs to completion on this goroutine, then the walkers are
	// released.
	rng := rand.New(rand.NewPCG(99, 0))
	for i := 0; i < 3000; i++ {
		u, v := NodeID(rng.IntN(n)), NodeID(rng.IntN(n))
		if rng.IntN(2) == 0 {
			g.AddEdge(u, v)
		} else {
			g.RemoveEdge(u, v)
		}
	}
	close(stop)
	walkers.Wait()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
