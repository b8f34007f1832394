package salsa

import (
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"fastppr/internal/gen"
	"fastppr/internal/graph"
	"fastppr/internal/topk"
)

var benchItems []topk.Item

// BenchmarkPersonalized times one uncached personalized query and its
// TopK(100), the read phase of the salsa_churn workload in miniature: a
// fixed-seed 3,000-node power-law graph, bootstrapped on four fifths of its
// edges, takes the rest through a shrink-grow churn stream; the queries then
// cycle over 64 fixed uniform sources at the default 1,024 walks.
func BenchmarkPersonalized(b *testing.B) {
	const n = 3000
	rng := rand.New(rand.NewPCG(41, 0))
	arrivals := gen.RandomPermutationStream(gen.PreferentialAttachment(n, 8, rng), rng)
	cut := len(arrivals) * 4 / 5
	g := nodeGraph(n)
	for _, e := range arrivals[:cut] {
		g.AddEdge(e.From, e.To)
	}
	m, _ := newMaintainer(g, Config{Eps: 0.2, R: 8, Workers: 1, Seed: 42})
	m.Bootstrap()
	m.ApplyEvents(gen.ShrinkGrowStream(arrivals[cut:], 2, 0.25, rng))
	sources := make([]graph.NodeID, 64)
	for i := range sources {
		sources[i] = graph.NodeID(rng.IntN(n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchItems = m.Personalized(sources[i%len(sources)]).TopK(100)
	}
}

// BenchmarkPersonalizedBesideWriter is BenchmarkPersonalized with one
// goroutine applying updates the whole time — serve_storm's read/write
// interference in miniature. The set-up holds back a tenth of the graph's
// edges; the writer adds them one by one as arrivals, deletes them again
// and repeats until the timed queries are done, so the graph stays bounded
// however long the benchmark runs. The time is per query.
func BenchmarkPersonalizedBesideWriter(b *testing.B) {
	const n = 3000
	rng := rand.New(rand.NewPCG(41, 0))
	arrivals := gen.RandomPermutationStream(gen.PreferentialAttachment(n, 8, rng), rng)
	cut := len(arrivals) * 9 / 10
	g := nodeGraph(n)
	for _, e := range arrivals[:cut] {
		g.AddEdge(e.From, e.To)
	}
	m, _ := newMaintainer(g, Config{Eps: 0.2, R: 8, Workers: 1, Seed: 42})
	m.Bootstrap()
	held := arrivals[cut:]
	sources := make([]graph.NodeID, 64)
	for i := range sources {
		sources[i] = graph.NodeID(rng.IntN(n))
	}
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			for _, e := range held {
				m.ApplyEdge(e)
			}
			for _, e := range held {
				m.ApplyDeletion(e)
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchItems = m.Personalized(sources[i%len(sources)]).TopK(100)
	}
	b.StopTimer()
	stop.Store(true)
	<-done
}
