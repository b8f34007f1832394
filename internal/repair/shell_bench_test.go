package repair_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"fastppr/internal/gen"
	"fastppr/internal/graph"
	"fastppr/internal/pagerank"
	"fastppr/internal/salsa"
	"fastppr/internal/socialstore"
)

// maintainer is the part of pagerank.Maintainer and salsa.Maintainer the
// benchmark drives.
type maintainer interface {
	Bootstrap() int64
	ApplyEvents([]graph.Event)
}

// BenchmarkApplyEvents times the update path both maintainers run through
// the shell, serialized (uw=1) and with two update workers (uw=2). The graph
// is a 2,000-node preferential-attachment graph with R = 8 walks per node
// (per side for SALSA) and ε = 0.2. One operation is one ApplyEvents call of
// 256 events from a fixed-seed churn cycle: 512 arrivals between uniformly
// random nodes, then the deletion of each of them in shuffled order. The
// cycle leaves the graph as it found it, so the stream can repeat for any
// b.N without a deletion ever missing.
func BenchmarkApplyEvents(b *testing.B) {
	const n, arrivals, batch = 2000, 512, 256
	laws := []struct {
		name string
		new  func(soc *socialstore.Store, uw int) maintainer
	}{
		{"pagerank", func(soc *socialstore.Store, uw int) maintainer {
			return pagerank.New(soc, pagerank.Config{Eps: 0.2, R: 8, Workers: 1, UpdateWorkers: uw, Seed: 3, CompactEvery: 1024})
		}},
		{"salsa", func(soc *socialstore.Store, uw int) maintainer {
			return salsa.New(soc, salsa.Config{Eps: 0.2, R: 8, Workers: 1, UpdateWorkers: uw, Seed: 3, CompactEvery: 1024})
		}},
	}
	for _, law := range laws {
		for _, uw := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/uw=%d", law.name, uw), func(b *testing.B) {
				rng := rand.New(rand.NewPCG(11, 0))
				mt := law.new(socialstore.New(gen.PreferentialAttachment(n, 5, rng)), uw)
				mt.Bootstrap()
				events := make([]graph.Event, 0, 2*arrivals)
				for range arrivals {
					events = append(events, graph.Event{Edge: graph.Edge{From: graph.NodeID(rng.IntN(n)), To: graph.NodeID(rng.IntN(n))}})
				}
				for _, i := range rng.Perm(arrivals) {
					events = append(events, graph.Event{Edge: events[i].Edge, Del: true})
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lo := i * batch % len(events)
					mt.ApplyEvents(events[lo : lo+batch])
				}
			})
		}
	}
}
