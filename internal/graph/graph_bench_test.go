package graph

import (
	"fmt"
	"testing"
)

// BenchmarkRemoveEdge times RemoveEdge into a hub whose in-row holds n
// single-copy in-edges, the victim sitting at the row's oldest end, its
// middle or its newest end; "two-copies" gives the middle victim a second
// copy at the newest end, which keeps the forward first-occurrence scan.
//
// Each timed pass removes the victim from every one of many identical hubs;
// an untimed pass re-adds it and swaps it back into its old slot, so every
// timed removal sees the same layout. Removing and re-adding alone would move
// the victim to the newest end and time only that case.
func BenchmarkRemoveEdge(b *testing.B) {
	for _, n := range []int{64, 5 << 10} {
		for _, victim := range []string{"oldest", "middle", "newest", "two-copies"} {
			b.Run(fmt.Sprintf("in=%d/victim=%s", n, victim), func(b *testing.B) {
				hubs := max(1, (256<<10)/n)
				g := NewWithShards(hubs*(n+1), 8)
				victims := make([]NodeID, hubs)
				slot := n / 2
				switch victim {
				case "oldest":
					slot = 0
				case "newest":
					slot = n - 1
				}
				for h := 0; h < hubs; h++ {
					for i := 0; i < n; i++ {
						g.AddEdge(NodeID(hubs+h*n+i), NodeID(h))
					}
					victims[h] = NodeID(hubs + h*n + slot)
					if victim == "two-copies" {
						g.AddEdge(victims[h], NodeID(h))
					}
				}
				b.ResetTimer()
				for done := 0; done < b.N; {
					k := min(hubs, b.N-done)
					for h := 0; h < k; h++ {
						g.RemoveEdge(victims[h], NodeID(h))
					}
					done += k
					b.StopTimer()
					for h := 0; h < k; h++ {
						g.AddEdge(victims[h], NodeID(h))
						in := g.shards[g.shardOf(NodeID(h))].row(NodeID(h), g.slotBits).in
						in[slot], in[len(in)-1] = in[len(in)-1], in[slot]
					}
					b.StartTimer()
				}
			})
		}
	}
}
