package salsa

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"fastppr/internal/graph"
	"fastppr/internal/repair"
	"fastppr/internal/socialstore"
	"fastppr/internal/topk"
	"fastppr/internal/walk"
	"fastppr/internal/walkstore"
)

// Config parameterizes a Maintainer.
type Config struct {
	// Eps is the reset probability flipped before every forward step, in
	// (0, 1]. Expected segment length is 1 + 2(1-Eps)/Eps nodes.
	Eps float64
	// R is the number of stored segments per node per side (the paper's R):
	// every node owns R forward-first (hub-start) and R backward-first
	// (authority-start) walks.
	R int
	// Workers sizes the Bootstrap worker pool; 0 means GOMAXPROCS.
	Workers int
	// UpdateWorkers sizes the pool the batch update methods consume events
	// with; 0 or 1 keeps the serialized, per-seed-reproducible path
	// (repair.Shell.ApplyEdges).
	UpdateWorkers int
	// Seed seeds bootstrap walk generation, the update RNG, and the
	// per-query RNG streams. Walk contents are chunk-deterministic for any
	// worker count; with Workers=1 and UpdateWorkers<=1 a run is fully
	// reproducible including segment IDs.
	Seed uint64
	// QueryWalks is the number of Monte Carlo walks a personalized query
	// runs; 0 means 1024.
	QueryWalks int
	// CompactEvery, when positive, has every CompactEvery-th arrival or
	// deletion compact the arena if at least a quarter of it is garbage
	// (repair.Kernel.MaybeCompact); fixed-seed runs are bitwise identical
	// with it on or off.
	CompactEvery int
}

func (c Config) queryWalks() int {
	if c.QueryWalks <= 0 {
		return 1024
	}
	return c.QueryWalks
}

// Counters is a snapshot of the maintainer's update-path accounting. An
// arrival runs two repair phases (forward steps of the edge's source,
// backward steps of its target), so FastSkips+EmptySkips+SlowPaths sums to
// 2*Arrivals.
type Counters struct {
	Arrivals   int64 // edges consumed
	FastSkips  int64 // repair phases dismissed by a skip coin alone
	EmptySkips int64 // repair phases with no stored step to perturb
	SlowPaths  int64 // repair phases that fetched segments from the store
	SlowNoops  int64 // slow paths that sampled no reroute: always 0 (repair.Counters)
	Rerouted   int64 // segments redirected through a new edge mid-path
	Revived    int64 // segments extended past a terminal that gained its needed edge
	Seeded     int64 // segments generated for nodes first seen mid-stream
	StepsIn    int64 // visits added by reroutes, revivals, and seeding
	StepsOut   int64 // visits removed by reroutes
	Queries    int64 // personalized queries served

	// Deletion-path accounting; deletions touch none of the arrival
	// counters above, so the FastSkips+EmptySkips+SlowPaths == 2*Arrivals
	// identity survives churn streams (repair.Counters).
	Deletions    int64 // edge deletions consumed
	DelMisses    int64 // deletions of edges not present in the graph
	DelRerouted  int64 // segments re-sampled through a surviving edge (either side)
	DelTruncated int64 // segments cut short by a reverse revival (either side)

	// Straggler-sweep accounting, parallel deletion batches only.
	Suspects int64 // distinct deleted edges a regrown tail stepped on (either side) during the batch
	Swept    int64 // suspects still absent after the barrier, re-repaired with c = 1
}

// SkipRate returns the fraction of repair phases the fast path skipped
// outright.
func (c Counters) SkipRate() float64 {
	if c.Arrivals == 0 {
		return 0
	}
	return float64(c.FastSkips) / float64(2*c.Arrivals)
}

// updateStream is the PCG stream of the serialized update RNG; the kernel's
// pool worker wk draws from stream updateStream<<16 + wk.
const updateStream = 0x5a15a

// shell names repair.Shell so that the field embedding it is unexported.
type shell = repair.Shell

// Maintainer keeps R alternating walk segments per node per side fresh under
// an edge stream and serves global and personalized SALSA scores from them.
// Global reads and personalized queries may run concurrently with updates;
// updates run serialized by default and concurrently under striped locks
// with Config.UpdateWorkers > 1. The update methods (ApplyEdge, ApplyEdges,
// ApplyDeletion, ApplyDeletions, ApplyEvents), UpdateRNGState,
// RestoreUpdateRNGState, Store and Social are repair.Shell's.
type Maintainer struct {
	*shell
	soc   *socialstore.Store
	walks *walkstore.Store
	cfg   Config

	// cnt is the query layer's accounting; the update path's is the shell's.
	cnt struct{ queries atomic.Int64 }

	law repair.Law // its Observe is the arrival observer; see SetArrivalObserver
}

// SetArrivalObserver registers f to run after every graph mutation —
// arrival or deletion — finishes its repair. The serving tier uses it to
// advance its per-stripe edge revisions: a graph change can alter query
// results without any walk-store mutation (an arrival's repair phases may
// fast-skip; a deletion may capture no stored step), so walk-store epochs
// alone cannot invalidate cached results. The observer receives the mutated
// edge; it is not told whether the mutation added or removed it, because
// invalidation only needs the endpoints. Set it before the first
// ApplyEdge/ApplyDeletion; under UpdateWorkers > 1 the observer runs
// concurrently from every worker.
func (m *Maintainer) SetArrivalObserver(f func(graph.Edge)) { m.law.Observe = f }

// New returns a maintainer over the social store's graph with an empty walk
// store. Call Bootstrap once to seed 2R segments per existing node before
// streaming edges.
func New(soc *socialstore.Store, cfg Config) *Maintainer {
	return NewWithStore(soc, cfg, walkstore.New())
}

// NewWithStore is New over a caller-supplied walk store — typically one
// recovered by internal/persist, so the maintainer journals into (and
// resumes from) durable state. The store must have been populated by a
// maintainer with the same Config, or be empty.
func NewWithStore(soc *socialstore.Store, cfg Config, walks *walkstore.Store) *Maintainer {
	if cfg.Eps <= 0 || cfg.Eps > 1 {
		panic("salsa: Eps must be in (0, 1]")
	}
	if cfg.R <= 0 {
		cfg.R = 1
	}
	m := &Maintainer{soc: soc, walks: walks, cfg: cfg, law: repair.Law{
		Config: repair.Config{
			Eps: cfg.Eps, Tail: repair.AlternatingTail, Workers: cfg.UpdateWorkers,
			Seed: cfg.Seed, Stream: updateStream, CompactEvery: cfg.CompactEvery,
		},
		R:     cfg.R,
		Sides: []walkstore.Side{walkstore.SideForward, walkstore.SideBackward},
	}}
	m.shell = repair.NewShell(soc, walks, &m.law)
	return m
}

// Recover returns a maintainer resuming over a recovered walk store: every
// node already in the graph is marked known (they owned their 2R sided
// segments when the store was persisted), so no Bootstrap runs and no
// arrival re-seeds them. Restore the update RNG with RestoreUpdateRNGState
// before applying edges to continue the persisted run bitwise.
func Recover(soc *socialstore.Store, cfg Config, walks *walkstore.Store) *Maintainer {
	m := NewWithStore(soc, cfg, walks)
	m.shell.Bootstrap(nil)
	return m
}

// Bootstrap generates R forward-first and R backward-first segments for
// every node currently in the graph and marks those nodes as owned. It
// returns the number of walk steps stored. Like the PageRank bootstrap this
// is the offline preprocessing pass: it walks the graph directly and is not
// call-accounted. Nodes are claimed in fixed-size chunks, each walked with
// its own PCG(Seed, chunkIndex) source, so the generated paths are identical
// for any worker count. Call it exactly once, before the first ApplyEdge.
func (m *Maintainer) Bootstrap() int64 { return m.shell.Bootstrap(m.bootstrap) }

// bootstrap stores the R walks per side of every node in nodes.
func (m *Maintainer) bootstrap(nodes []graph.NodeID) int64 {
	g := m.soc.Graph()
	workers := m.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	const chunk = 256
	var cursor, steps atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pathsF, pathsB [][]graph.NodeID
			var local int64
			for {
				lo := int(cursor.Add(chunk)) - chunk
				if lo >= len(nodes) {
					break
				}
				hi := min(lo+chunk, len(nodes))
				rng := rand.New(rand.NewPCG(m.cfg.Seed, uint64(lo/chunk)))
				pathsF, pathsB = pathsF[:0], pathsB[:0]
				for _, v := range nodes[lo:hi] {
					for i := 0; i < m.cfg.R; i++ {
						seg := walk.Salsa(g, v, walk.Forward, m.cfg.Eps, rng)
						pathsF = append(pathsF, seg.Path)
						local += int64(len(seg.Path))
					}
					for i := 0; i < m.cfg.R; i++ {
						seg := walk.Salsa(g, v, walk.Backward, m.cfg.Eps, rng)
						pathsB = append(pathsB, seg.Path)
						local += int64(len(seg.Path))
					}
				}
				m.walks.AddBatchSided(pathsF, walkstore.SideForward)
				m.walks.AddBatchSided(pathsB, walkstore.SideBackward)
			}
			steps.Add(local)
		}()
	}
	wg.Wait()
	return steps.Load()
}

// AuthorityEstimate returns v's global authority score: the fraction of all
// stored authority-side visits (visits pending a backward step) that land on
// v. Safe to call concurrently with updates; the numerator is read under v's
// counter stripe and the denominator atomically.
func (m *Maintainer) AuthorityEstimate(v graph.NodeID) float64 {
	m.soc.CountFetch()
	visits, total := m.walks.PendingVisitFraction(v, walkstore.SideBackward)
	if total == 0 {
		return 0
	}
	return float64(visits) / float64(total)
}

// HubEstimate returns v's global hub score: the fraction of all stored
// hub-side visits (visits pending a forward step) that land on v.
func (m *Maintainer) HubEstimate(v graph.NodeID) float64 {
	m.soc.CountFetch()
	visits, total := m.walks.PendingVisitFraction(v, walkstore.SideForward)
	if total == 0 {
		return 0
	}
	return float64(visits) / float64(total)
}

// AuthorityAll returns the full global authority score vector as one
// per-stripe-consistent snapshot. Nodes with no authority-side visits are
// absent.
func (m *Maintainer) AuthorityAll() map[graph.NodeID]float64 {
	m.soc.CountFetch()
	return m.pendingScores(walkstore.SideBackward)
}

// HubAll returns the full global hub score vector as one
// per-stripe-consistent snapshot. Nodes with no hub-side visits are absent.
func (m *Maintainer) HubAll() map[graph.NodeID]float64 {
	m.soc.CountFetch()
	return m.pendingScores(walkstore.SideForward)
}

// pendingScores returns every node's share of the stored visits pending a
// dir step: one pass over the sided counters, normalized in place by the
// total the pass summed.
func (m *Maintainer) pendingScores(dir walkstore.Side) map[graph.NodeID]float64 {
	scores := make(map[graph.NodeID]float64)
	var total int64
	m.walks.EachPendingVisitCount(dir, func(v graph.NodeID, x int64) {
		scores[v] = float64(x)
		total += x
	})
	for v, x := range scores {
		scores[v] = x / float64(total)
	}
	return scores
}

// TopKAuthorities returns the k highest global authority scores, descending,
// ties toward lower IDs, streaming the authority-side counters instead of
// copying the table.
func (m *Maintainer) TopKAuthorities(k int) []topk.Item {
	m.soc.CountFetch()
	return topk.TopKShares(k, func(yield func(graph.NodeID, int64)) {
		m.walks.EachPendingVisitCount(walkstore.SideBackward, yield)
	})
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
		Queries:      m.cnt.queries.Load(),
		Deletions:    c.Deletions.Load(),
		DelMisses:    c.DelMisses.Load(),
		DelRerouted:  c.DelRerouted.Load(),
		DelTruncated: c.DelTruncated.Load(),
		Suspects:     c.Suspects.Load(),
		Swept:        c.Swept.Load(),
	}
}
