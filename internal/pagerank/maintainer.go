package pagerank

import (
	"sync/atomic"

	"fastppr/internal/engine"
	"fastppr/internal/graph"
	"fastppr/internal/repair"
	"fastppr/internal/socialstore"
	"fastppr/internal/topk"
	"fastppr/internal/walkstore"
)

// Config parameterizes a Maintainer.
type Config struct {
	// Eps is the walk reset probability, in (0, 1].
	Eps float64
	// R is the number of stored segments per node (the paper's R).
	R int
	// Workers sizes the engine worker pool used by Bootstrap; 0 means
	// GOMAXPROCS.
	Workers int
	// UpdateWorkers sizes the pool the batch update methods consume events
	// with; 0 or 1 keeps the serialized, per-seed-reproducible path
	// (repair.Shell.ApplyEdges).
	UpdateWorkers int
	// Seed seeds both the bootstrap walk generation and the update RNG, so a
	// fixed-seed serialized run is fully reproducible.
	Seed uint64
	// CompactEvery, when positive, has every CompactEvery-th arrival or
	// deletion compact the arena if at least a quarter of it is garbage
	// (repair.Kernel.MaybeCompact); fixed-seed runs are bitwise identical
	// with it on or off.
	CompactEvery int
}

// Counters is a snapshot of the maintainer's update-path accounting.
type Counters struct {
	Arrivals   int64 // edges consumed
	FastSkips  int64 // arrivals dismissed by the skip coin alone
	EmptySkips int64 // arrivals whose source had no stored walk to perturb
	SlowPaths  int64 // arrivals that fetched segments from the store
	SlowNoops  int64 // slow paths that sampled no reroute: always 0 (repair.Counters)
	Rerouted   int64 // segments redirected through a new edge mid-path
	Revived    int64 // segments extended past a formerly dangling terminal
	Seeded     int64 // segments generated for nodes first seen mid-stream
	StepsIn    int64 // visits added by reroutes, revivals, and seeding
	StepsOut   int64 // visits removed by reroutes
	Estimates  int64 // Estimate/ApproxAll/TopK calls served

	// Deletion-path accounting; deletions touch none of the arrival
	// counters above (repair.Counters).
	Deletions    int64 // edge deletions consumed
	DelMisses    int64 // deletions of edges not present in the graph
	DelRerouted  int64 // segments re-sampled through a surviving out-edge
	DelTruncated int64 // segments cut short by the reverse revival (source went dangling)

	// Straggler-sweep accounting, parallel deletion batches only.
	Suspects int64 // distinct deleted edges a regrown tail stepped on during the batch
	Swept    int64 // suspects still absent after the barrier, re-repaired with c = 1
}

// SkipRate returns the fraction of arrivals the fast path skipped outright.
func (c Counters) SkipRate() float64 {
	if c.Arrivals == 0 {
		return 0
	}
	return float64(c.FastSkips) / float64(c.Arrivals)
}

// updateStream is the PCG stream of the serialized update RNG; the kernel's
// pool worker wk draws from stream updateStream<<16 + wk.
const updateStream = 0x9a6e

// shell names repair.Shell so that the field embedding it is unexported.
type shell = repair.Shell

// Maintainer serves PageRank estimates over a dynamic graph. Estimates may
// be read concurrently with updates; updates run serialized by default and
// concurrently under striped locks with Config.UpdateWorkers > 1. The update
// methods (ApplyEdge, ApplyEdges, ApplyDeletion, ApplyDeletions,
// ApplyEvents), UpdateRNGState, RestoreUpdateRNGState, Store and Social are
// repair.Shell's.
type Maintainer struct {
	*shell
	soc   *socialstore.Store
	walks *walkstore.Store
	eng   *engine.Engine
	cfg   Config

	estimates atomic.Int64
}

// New returns a maintainer over the social store's graph with an empty walk
// store. Call Bootstrap once to seed R segments per existing node before
// streaming edges.
func New(soc *socialstore.Store, cfg Config) *Maintainer {
	return NewWithStore(soc, cfg, walkstore.New())
}

// NewWithStore is New over a caller-supplied walk store — typically one
// recovered by internal/persist, so the maintainer journals into (and
// resumes from) durable state. The store must have been populated by a
// maintainer with the same Config, or be empty.
func NewWithStore(soc *socialstore.Store, cfg Config, walks *walkstore.Store) *Maintainer {
	if cfg.R <= 0 {
		cfg.R = 1
	}
	return &Maintainer{
		shell: repair.NewShell(soc, walks, &repair.Law{
			Config: repair.Config{
				Eps: cfg.Eps, Tail: repair.ResetTail, Workers: cfg.UpdateWorkers,
				Seed: cfg.Seed, Stream: updateStream, CompactEvery: cfg.CompactEvery,
			},
			R: cfg.R, Sides: []walkstore.Side{walkstore.Unsided},
		}),
		soc:   soc,
		walks: walks,
		eng: engine.New(soc.Graph(), walks, engine.Config{
			Eps: cfg.Eps, R: cfg.R, Workers: cfg.Workers, Seed: cfg.Seed,
		}),
		cfg: cfg,
	}
}

// Recover returns a maintainer resuming over a recovered walk store: every
// node already in the graph is marked known (they owned their R segments
// when the store was persisted), so no Bootstrap runs and no arrival re-seeds
// them. Restore the update RNG with RestoreUpdateRNGState before applying
// edges to continue the persisted run bitwise.
func Recover(soc *socialstore.Store, cfg Config, walks *walkstore.Store) *Maintainer {
	m := NewWithStore(soc, cfg, walks)
	m.shell.Bootstrap(nil)
	return m
}

// Bootstrap generates cfg.R segments for every node currently in the graph
// using the parallel engine and marks those nodes as owned. It returns the
// number of walk steps stored. Bootstrap is the paper's offline
// preprocessing pass; it walks the graph directly and is not call-accounted.
// Call it exactly once, before the first ApplyEdge.
func (m *Maintainer) Bootstrap() int64 { return m.shell.Bootstrap(m.eng.BuildStore) }

// Estimate returns the PageRank estimate of v: X_v / TotalVisits, the
// dangling-robust normalization of the paper's eps·X_v/(nR) (identical on
// dangling-free graphs, where E[TotalVisits] = nR/eps). Safe to call
// concurrently with updates: the numerator is read under v's counter stripe
// and the denominator atomically, so the ratio's skew is bounded by the
// mutations in flight.
func (m *Maintainer) Estimate(v graph.NodeID) float64 {
	m.estimates.Add(1)
	m.soc.CountFetch()
	visits, total := m.walks.VisitFraction(v)
	if total == 0 {
		return 0
	}
	return float64(visits) / float64(total)
}

// ApproxAll returns the full estimate vector as one per-stripe-consistent
// pass over the visit counters. Nodes never visited by any stored walk are
// absent.
func (m *Maintainer) ApproxAll() map[graph.NodeID]float64 {
	m.estimates.Add(1)
	m.soc.CountFetch()
	scores := make(map[graph.NodeID]float64)
	var total int64
	m.walks.EachVisitCount(func(v graph.NodeID, x int64) {
		scores[v] = float64(x)
		total += x
	})
	for v, x := range scores {
		scores[v] = x / float64(total)
	}
	return scores
}

// TopK returns the k highest-estimate nodes, descending, ties toward lower
// IDs, streaming the visit counters instead of copying the table.
func (m *Maintainer) TopK(k int) []topk.Item {
	m.estimates.Add(1)
	m.soc.CountFetch()
	return topk.TopKShares(k, m.walks.EachVisitCount)
}

// Counters returns a snapshot of the update-path accounting.
func (m *Maintainer) Counters() Counters {
	c := m.shell.Counters()
	return Counters{
		Arrivals:     c.Arrivals.Load(),
		FastSkips:    c.FastSkips.Load(),
		EmptySkips:   c.EmptySkips.Load(),
		SlowPaths:    c.SlowPaths.Load(),
		Rerouted:     c.Rerouted.Load(),
		Revived:      c.Revived.Load(),
		Seeded:       c.Seeded.Load(),
		StepsIn:      c.StepsIn.Load(),
		StepsOut:     c.StepsOut.Load(),
		Estimates:    m.estimates.Load(),
		Deletions:    c.Deletions.Load(),
		DelMisses:    c.DelMisses.Load(),
		DelRerouted:  c.DelRerouted.Load(),
		DelTruncated: c.DelTruncated.Load(),
		Suspects:     c.Suspects.Load(),
		Swept:        c.Swept.Load(),
	}
}
