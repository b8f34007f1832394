package main

import (
	"cmp"
	"math/rand/v2"
	"slices"

	"fastppr/internal/gen"
	"fastppr/internal/graph"
)

// PCG stream salts: every input of a run is drawn from its own stream of the
// run seed, so adding an input never shifts another.
const (
	saltGraph = iota + 0xbe00
	saltOrder
	saltChurn
	saltArrivals
	saltSources
	saltWriter
	saltProbe
	saltProbeChurn
	saltProbeRNG
)

func pcg(seed, salt uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, salt)) }

// inputs is everything a workload feeds the system, generated from the seed
// alone before the first set-up. The maintainers only ever see these edges,
// events and query sources.
type inputs struct {
	nodes     int
	bootstrap []graph.Edge  // builds the graph Bootstrap walks over
	events    []graph.Event // the stream: warm-up head, then the timed phase
	sources   []graph.NodeID
	// probe is a short churn stream, valid after events, that the traced run
	// applies last to capture a real walk-store mutation sequence.
	probe []graph.Event
}

func (in *inputs) warm(frac float64) int { return int(float64(len(in.events)) * frac) }

// release drops the bulk inputs once the stream has been consumed, so
// live_heap_mb measures the system's state and not the harness's.
func (in *inputs) release() { in.bootstrap, in.events = nil, nil }

// paStream is the common base: a preferential-attachment graph replayed in
// uniformly random order (the paper's random-permutation arrival model),
// split into the bootstrap prefix and the arrivals that follow. The edges
// leaving the d oldest nodes are moved to the front, into the prefix: those
// nodes are the graph's hubs, they have fewer than d out-edges each (node 1
// has one), and whether one of those few edges happens to churn decides the
// fate of every stored walk through a hub — a lottery over a few hundred
// edges that moved the work per event by a sixth from seed to seed.
func paStream(n, d, bootstrapEdges int, seed uint64) (prefix, suffix []graph.Edge) {
	pa := gen.PreferentialAttachment(n, d, pcg(seed, saltGraph))
	stream := gen.RandomPermutationStream(pa, pcg(seed, saltOrder))
	old := graph.NodeID(d)
	slices.SortStableFunc(stream, func(a, b graph.Edge) int {
		return cmp.Compare(min(a.From/old, 1), min(b.From/old, 1))
	})
	return gen.SplitStream(stream, float64(bootstrapEdges)/float64(len(stream)))
}

func makeInputs(workload string, sz sizes, seed uint64) *inputs {
	switch workload {
	case "pr_churn", "pr_churn_par", "durable_stream":
		prefix, suffix := paStream(sz.PRNodes, sz.PRDegree, sz.PRBootstrapEdges, seed)
		in := &inputs{
			nodes:     sz.PRNodes,
			bootstrap: prefix,
			events:    gen.ShrinkGrowStream(suffix[:sz.PRArrivals], 4, 0.3, pcg(seed, saltChurn)),
			probe:     gen.ShrinkGrowStream(suffix[sz.PRArrivals:sz.PRArrivals+sz.ProbeArrivals], 2, 0.3, pcg(seed, saltProbeChurn)),
		}
		if workload == "durable_stream" {
			// A prefix of pr_churn's stream, possibly ending mid-phase; the
			// probe stream deletes only its own arrivals, so it stays valid.
			in.events = in.events[:min(sz.DurableEvents, len(in.events))]
		}
		return in
	case "salsa_churn", "serve_storm":
		n := sz.SalsaNodes
		prefix, _ := paStream(n, sz.SalsaDegree, sz.SalsaBootstrapEdges, seed)
		in := &inputs{nodes: n, bootstrap: prefix}
		probe := gen.PowerLawStream(n, sz.ProbeArrivals/4, 0.9, 0.7, pcg(seed, saltProbe))
		in.probe = gen.ShrinkGrowStream(probe, 2, 0.3, pcg(seed, saltProbeChurn))
		rng := pcg(seed, saltSources)
		if workload == "salsa_churn" {
			arrivals := gen.PowerLawStream(n, sz.SalsaArrivals, 0.9, 0.7, pcg(seed, saltArrivals))
			in.events = gen.ShrinkGrowStream(arrivals, 4, 0.3, pcg(seed, saltChurn))
			in.sources = make([]graph.NodeID, max(sz.Reads, sz.TailReads))
			for i := range in.sources {
				in.sources[i] = graph.NodeID(rng.IntN(n))
			}
			return in
		}
		// serve_storm: the writer draws its uniform arrivals as it goes (see
		// uniformBatch); the query schedule is fixed here. Zipf rank r is node
		// r, so the head of the popularity law fits the cache and its tail
		// does not.
		z := gen.NewZipf(n, sz.ServeZipf)
		total := int(sz.ServeSeconds * (1 + sz.WarmFrac) * float64(sz.ServeQPS))
		in.sources = make([]graph.NodeID, total)
		for i := range in.sources {
			in.sources[i] = graph.NodeID(z.Sample(rng))
		}
		return in
	}
	panic("bench: unknown workload " + workload)
}

// uniformBatch fills batch with uniform arrivals over n nodes, self-loops
// skipped — the arrival mix a live social graph sees.
func uniformBatch(batch []graph.Edge, n int, rng *rand.Rand) {
	for i := 0; i < len(batch); {
		u, v := graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n))
		if u != v {
			batch[i] = graph.Edge{From: u, To: v}
			i++
		}
	}
}
