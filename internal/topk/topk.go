package topk

import (
	"container/heap"
	"slices"

	"fastppr/internal/graph"
)

// Item is a scored node.
type Item struct {
	Node  graph.NodeID
	Score float64
}

// Collector keeps the k highest-scoring items seen so far. Ties are broken
// toward lower node IDs so results are deterministic. The zero value is not
// usable; use New.
type Collector struct {
	k int
	h itemHeap
}

// New returns a collector holding at most k items. k must be positive.
func New(k int) *Collector {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	return &Collector{k: k, h: make(itemHeap, 0, k)}
}

// Offer considers one item.
func (c *Collector) Offer(node graph.NodeID, score float64) {
	if len(c.h) < c.k {
		heap.Push(&c.h, Item{node, score})
		return
	}
	if less(Item{node, score}, c.h[0]) {
		return
	}
	c.h[0] = Item{node, score}
	heap.Fix(&c.h, 0)
}

// Len returns the number of items currently held.
func (c *Collector) Len() int { return len(c.h) }

// Items returns the held items in descending score order (ties by ascending
// node ID). The collector remains usable afterwards.
func (c *Collector) Items() []Item {
	out := append([]Item(nil), c.h...)
	// Derived from less so eviction order and ranking order cannot diverge.
	slices.SortFunc(out, func(a, b Item) int {
		switch {
		case less(b, a):
			return -1
		case less(a, b):
			return 1
		default:
			return 0
		}
	})
	return out
}

// TopKShares returns the k largest shares x/total of a stream of positive
// integer counts, descending, where total is the sum of the whole stream:
// each calls yield once per (node, count). The counts go through the
// collector raw and only the k survivors are divided, so no score table is
// built; scores and order are bit-identical to TopK over a map of
// float64(x)/float64(total), because dividing by a positive constant is
// monotone, and strictly so for counts below 2^52, whose relative gaps exceed
// a float64 rounding step.
func TopKShares(k int, each func(yield func(node graph.NodeID, x int64))) []Item {
	c := New(k)
	var total int64
	each(func(node graph.NodeID, x int64) {
		c.Offer(node, float64(x))
		total += x
	})
	items := c.Items()
	for i := range items {
		items[i].Score /= float64(total)
	}
	return items
}

// TopK returns the k highest-scoring entries of scores, descending.
func TopK(scores map[graph.NodeID]float64, k int) []Item {
	c := New(k)
	for v, s := range scores {
		c.Offer(v, s)
	}
	return c.Items()
}

// Stream yields scored items in descending order (ties by ascending node
// ID) one at a time, so a caller wanting "results until the score drops
// below x" or "the first k that satisfy a filter" stops without paying for a
// full sort. Construction heapifies in O(n); each Next is O(log n). The
// input map is read once at construction; later map writes do not affect the
// stream.
type Stream struct {
	h maxHeap
}

// NewStream returns a descending iterator over scores.
func NewStream(scores map[graph.NodeID]float64) *Stream {
	h := make(maxHeap, 0, len(scores))
	for v, s := range scores {
		h = append(h, Item{v, s})
	}
	heap.Init(&h)
	return &Stream{h: h}
}

// Next returns the highest-scoring remaining item. ok is false when the
// stream is exhausted.
func (s *Stream) Next() (it Item, ok bool) {
	if len(s.h) == 0 {
		return Item{}, false
	}
	return heap.Pop(&s.h).(Item), true
}

// Len returns the number of items not yet yielded.
func (s *Stream) Len() int { return len(s.h) }

// maxHeap is itemHeap with the order reversed: the root is the best
// remaining item under the same tie rule the Collector ranks by.
type maxHeap []Item

func (h maxHeap) Len() int            { return len(h) }
func (h maxHeap) Less(i, j int) bool  { return less(h[j], h[i]) }
func (h maxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x interface{}) { *h = append(*h, x.(Item)) }
func (h *maxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// less orders items ascending by score, with higher node IDs treated as
// smaller on ties (so the min-heap evicts the larger ID first and the
// returned ranking prefers lower IDs).
func less(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Node > b.Node
}

type itemHeap []Item

func (h itemHeap) Len() int            { return len(h) }
func (h itemHeap) Less(i, j int) bool  { return less(h[i], h[j]) }
func (h itemHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x interface{}) { *h = append(*h, x.(Item)) }
func (h *itemHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
