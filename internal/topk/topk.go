package topk

import (
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
	h []Item // a min-heap under less: h[0] is the next item to evict
}

// New returns a collector holding at most k items. k must be positive.
func New(k int) *Collector {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	return &Collector{k: k, h: make([]Item, 0, k)}
}

// Offer considers one item.
func (c *Collector) Offer(node graph.NodeID, score float64) {
	if len(c.h) < c.k {
		c.h = append(c.h, Item{node, score})
		up(c.h, len(c.h)-1, less)
		return
	}
	if less(Item{node, score}, c.h[0]) {
		return
	}
	c.h[0] = Item{node, score}
	down(c.h, 0, len(c.h), less)
}

// Len returns the number of items currently held.
func (c *Collector) Len() int { return len(c.h) }

// Items returns the held items in descending score order (ties by ascending
// node ID). The collector remains usable afterwards.
func (c *Collector) Items() []Item {
	out := append([]Item(nil), c.h...)
	rank(out)
	return out
}

// rank sorts items in descending score order, ties by ascending node ID.
func rank(items []Item) {
	// Derived from less so eviction order and ranking order cannot diverge.
	slices.SortFunc(items, func(a, b Item) int {
		switch {
		case less(b, a):
			return -1
		case less(a, b):
			return 1
		default:
			return 0
		}
	})
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
	// The collector and the running total share one heap object, and the
	// collector's own slice is ranked in place and returned: a call
	// allocates that object, the yield closure and the slice, whatever the
	// stream length.
	var acc struct {
		c     Collector
		total int64
	}
	acc.c = *New(k)
	each(func(node graph.NodeID, x int64) {
		acc.c.Offer(node, float64(x))
		acc.total += x
	})
	items := acc.c.h
	rank(items)
	for i := range items {
		items[i].Score /= float64(acc.total)
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
	h []Item // a max-heap under less: h[0] is the best remaining item
}

// NewStream returns a descending iterator over scores.
func NewStream(scores map[graph.NodeID]float64) *Stream {
	h := make([]Item, 0, len(scores))
	for v, s := range scores {
		h = append(h, Item{v, s})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(h, i, len(h), more)
	}
	return &Stream{h: h}
}

// Next returns the highest-scoring remaining item. ok is false when the
// stream is exhausted.
func (s *Stream) Next() (it Item, ok bool) {
	n := len(s.h) - 1
	if n < 0 {
		return Item{}, false
	}
	s.h[0], s.h[n] = s.h[n], s.h[0]
	down(s.h, 0, n, more)
	it = s.h[n]
	s.h = s.h[:n]
	return it, true
}

// Len returns the number of items not yet yielded.
func (s *Stream) Len() int { return len(s.h) }

// less orders items ascending by score, with higher node IDs treated as
// smaller on ties (so the min-heap evicts the larger ID first and the
// returned ranking prefers lower IDs).
func less(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Node > b.Node
}

// more is less reversed: the Stream's max-heap order under the same tie rule
// the Collector ranks by.
func more(a, b Item) bool { return less(b, a) }

// up and down are container/heap's sift loops on a plain slice ordered by lt,
// so no item is boxed into an interface and items move exactly as heap.Push,
// heap.Fix, heap.Init and heap.Pop would move them.
func up(h []Item, j int, lt func(a, b Item) bool) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !lt(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func down(h []Item, i, n int, lt func(a, b Item) bool) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && lt(h[j2], h[j1]) {
			j = j2 // right child
		}
		if !lt(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
