package gen

import (
	"math"
	"math/rand/v2"

	"fastppr/internal/graph"
)

// PreferentialAttachment builds a directed graph with n nodes where each new
// node issues outPerNode edges whose targets are chosen by preferential
// attachment on in-degree (with add-one smoothing so early nodes can be
// reached). The resulting in-degree sequence is power-law distributed, the
// regime the paper's Figures 2–4 live in. Self-loops and duplicate targets
// from one source are avoided when possible.
func PreferentialAttachment(n, outPerNode int, rng *rand.Rand) *graph.Graph {
	if n <= 0 {
		panic("gen: n must be positive")
	}
	g := graph.New(n)
	// targets is a multiset realizing "probability proportional to
	// in-degree + 1": every node appears once (the +1 smoothing) plus once
	// per incoming edge.
	targets := make([]graph.NodeID, 0, n*(outPerNode+1))
	for i := 0; i < n; i++ {
		v := graph.NodeID(i)
		g.AddNode(v)
		targets = append(targets, v)
		if i == 0 {
			continue
		}
		deg := outPerNode
		if deg > i {
			deg = i
		}
		chosen := make(map[graph.NodeID]bool, deg)
		for len(chosen) < deg {
			t := targets[rng.IntN(len(targets))]
			if t == v || chosen[t] {
				// Resample; duplicates are common early, rare later.
				// Guard against pathological loops on tiny prefixes.
				if len(chosen) >= i {
					break
				}
				continue
			}
			chosen[t] = true
			g.AddEdge(v, t)
			targets = append(targets, t)
		}
	}
	return g
}

// Zipf samples ranks 0..n-1 with probability proportional to (rank+1)^-alpha
// by inverting the (integrated) CDF; alpha may be any value in (0, 1).
// math/rand's Zipf requires s > 1, hence this bespoke sampler.
type Zipf struct {
	cdf []float64 // cumulative normalized weights
}

// NewZipf precomputes the sampler for n ranks and exponent alpha.
func NewZipf(n int, alpha float64) *Zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for j := 0; j < n; j++ {
		sum += math.Pow(float64(j+1), -alpha)
		cdf[j] = sum
	}
	for j := range cdf {
		cdf[j] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Sample draws one rank in [0, n).
func (z *Zipf) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Example1 constructs the adversarial gadget of the paper's Example 1: a
// directed N-cycle v_1..v_N, a hub u, spokes x_1..x_N (u <-> x_j), and
// satellites y_1..y_N (v_1 <-> y_j). Every v_j points at u. Total nodes
// n = 3N+1. Adding the single edge u -> v_1 afterwards forces Omega(n)
// stored walk segments to be updated. Node numbering: v_j = j (1..N),
// u = N+1, x_j = N+1+j, y_j = 2N+1+j.
func Example1(n int) (*graph.Graph, ExampleNodes) {
	if n < 1 {
		panic("gen: Example1 needs N >= 1")
	}
	g := graph.New(3*n + 1)
	v := func(j int) graph.NodeID { return graph.NodeID(j) }         // 1..N
	u := graph.NodeID(n + 1)                                         //
	x := func(j int) graph.NodeID { return graph.NodeID(n + 1 + j) } // 1..N
	y := func(j int) graph.NodeID { return graph.NodeID(2*n + 1 + j) }
	for j := 1; j <= n; j++ {
		g.AddEdge(v(j), v(j%n+1)) // the cycle
		g.AddEdge(v(j), u)        // every v_j -> u
		g.AddEdge(u, x(j))        // u -> x_j
		g.AddEdge(x(j), u)        // x_j -> u
		g.AddEdge(v(1), y(j))     // v_1 -> y_j
		g.AddEdge(y(j), v(1))     // y_j -> v_1
	}
	return g, ExampleNodes{U: u, V1: v(1), N: n}
}

// ExampleNodes names the distinguished nodes of the Example 1 gadget.
type ExampleNodes struct {
	U  graph.NodeID // the hub whose new edge triggers the blow-up
	V1 graph.NodeID // target of the adversarial edge
	N  int          // cycle length (total nodes = 3N+1)
}
