package walk

import (
	"cmp"
	"math/rand/v2"
	"slices"

	"fastppr/internal/graph"
)

// EdgeSet is a read-only set of directed edges: the deleted edges a parallel
// batch's Recorders watch.
type EdgeSet map[graph.Edge]struct{}

// NewEdgeSet returns the set of the edges in es.
func NewEdgeSet(es []graph.Edge) EdgeSet {
	s := make(EdgeSet, len(es))
	for _, e := range es {
		s[e] = struct{}{}
	}
	return s
}

// Recorder is a Neighborer that passes every sample through to an inner
// Neighborer and records each sampled step that lands on a watched edge: an
// out-sample v -> w as the edge (v, w), an in-sample (a backward step from v
// to w) as (w, v), the edge it traversed. The maintainers and the engine give
// each worker of a parallel deletion batch its own Recorder over the batch's
// deleted edges; the straggler sweep after the barrier then revisits only the
// edges some regrown tail stepped on. The watch set is shared and never
// written; a Recorder belongs to one goroutine. With an empty watch set it
// records nothing and allocates nothing.
type Recorder struct {
	inner Neighborer
	watch EdgeSet
	hits  []graph.Edge
}

// NewRecorder returns a Recorder sampling through inner and watching watch.
func NewRecorder(inner Neighborer, watch EdgeSet) *Recorder {
	return &Recorder{inner: inner, watch: watch}
}

// RandomOutNeighbor samples through the inner Neighborer and records the step
// v -> w if it is watched.
func (r *Recorder) RandomOutNeighbor(v graph.NodeID, rng *rand.Rand) (graph.NodeID, bool) {
	w, ok := r.inner.RandomOutNeighbor(v, rng)
	if ok {
		r.note(graph.Edge{From: v, To: w})
	}
	return w, ok
}

// RandomInNeighbor samples through the inner Neighborer and records the
// traversed edge w -> v if it is watched.
func (r *Recorder) RandomInNeighbor(v graph.NodeID, rng *rand.Rand) (graph.NodeID, bool) {
	w, ok := r.inner.RandomInNeighbor(v, rng)
	if ok {
		r.note(graph.Edge{From: w, To: v})
	}
	return w, ok
}

func (r *Recorder) note(e graph.Edge) {
	if len(r.watch) == 0 {
		return
	}
	if _, hit := r.watch[e]; hit {
		r.hits = append(r.hits, e)
	}
}

// Distinct returns the distinct edges any of recs recorded, in ascending
// (From, To) order — one canonical order however the workers interleaved.
// Nil entries are skipped.
func Distinct(recs []*Recorder) []graph.Edge {
	var all []graph.Edge
	for _, r := range recs {
		if r != nil {
			all = append(all, r.hits...)
		}
	}
	slices.SortFunc(all, func(a, b graph.Edge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	return slices.Compact(all)
}
