package pagerank

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"fastppr/internal/engine"
	"fastppr/internal/graph"
	"fastppr/internal/repair"
	"fastppr/internal/socialstore"
	"fastppr/internal/stripes"
	"fastppr/internal/topk"
	"fastppr/internal/walk"
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
	// UpdateWorkers sizes the pool ApplyEdges uses to consume a batch of
	// arrivals concurrently under source- and segment-striped locks; 0 or 1
	// keeps the fully serialized, per-seed-reproducible path. With more
	// workers a fixed-seed run is reproducible only in distribution (see
	// docs/DESIGN.md#6-concurrency-model); the skip coin stays lossless and
	// SlowNoops == 0 either way.
	UpdateWorkers int
	// Seed seeds both the bootstrap walk generation and the update RNG, so a
	// fixed-seed serialized run is fully reproducible.
	Seed uint64
	// CompactEvery, when positive, checks the arena every CompactEvery-th
	// completed mutation (arrival or deletion) and runs Store.Compact when
	// at least a quarter of it is garbage (Store.MaybeCompact), without
	// repeatedly copying a mostly-live arena. Compaction changes no
	// logical state, so fixed-seed runs are bitwise identical with it on
	// or off. See docs/DESIGN.md#11-batching--compaction.
	CompactEvery int
}

// Counters is a snapshot of the maintainer's update-path accounting.
type Counters struct {
	Arrivals   int64 // edges consumed
	FastSkips  int64 // arrivals dismissed by the skip coin alone
	EmptySkips int64 // arrivals whose source had no stored walk to perturb
	SlowPaths  int64 // arrivals that fetched segments from the store
	SlowNoops  int64 // slow paths that sampled no reroute: always 0, see below
	Rerouted   int64 // segments redirected through a new edge mid-path
	Revived    int64 // segments extended past a formerly dangling terminal
	Seeded     int64 // segments generated for nodes first seen mid-stream
	StepsIn    int64 // visits added by reroutes, revivals, and seeding
	StepsOut   int64 // visits removed by reroutes
	Estimates  int64 // Estimate/ApproxAll/TopK calls served

	// SlowNoops == 0 holds by construction: the skip coin is the "at least
	// one step switches" indicator, and on heads the first switch is drawn
	// before the scan, which performs it. The field stays for readers that
	// assert the invariant.

	// Deletion-path accounting. Deletions have no skip coin (no counter
	// tracks steps through one specific edge), so they never touch the
	// arrival counters above and cannot produce SlowNoops.
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

// counters is the maintainer's live accounting beside the kernel's phase
// counts: atomics, so serialized and parallel update paths share one
// implementation.
type counters struct {
	arrivals, seeded, estimates           atomic.Int64
	deletions, delMisses, suspects, swept atomic.Int64
}

func (c *counters) snapshot(k *repair.Counters) Counters {
	return Counters{
		Arrivals:     c.arrivals.Load(),
		FastSkips:    k.FastSkips.Load(),
		EmptySkips:   k.EmptySkips.Load(),
		SlowPaths:    k.SlowPaths.Load(),
		Rerouted:     k.Rerouted.Load(),
		Revived:      k.Revived.Load(),
		Seeded:       c.seeded.Load(),
		StepsIn:      k.StepsIn.Load(),
		StepsOut:     k.StepsOut.Load(),
		Estimates:    c.estimates.Load(),
		Deletions:    c.deletions.Load(),
		DelMisses:    c.delMisses.Load(),
		DelRerouted:  k.DelRerouted.Load(),
		DelTruncated: k.DelTruncated.Load(),
		Suspects:     c.suspects.Load(),
		Swept:        c.swept.Load(),
	}
}

const (
	// sourceStripes serializes arrivals and deletions by source: a node's
	// out-degree only moves on writes from that node, so one stripe lock
	// makes the (write, repair) pair atomic per source — the repair's
	// out-degree is the write's own reply, and no other write from the
	// source lands before the repair is done. A repair's first step out of
	// the source is therefore ordered with every deletion of that step's
	// edge, which is why it need not be watched by the straggler sweep.
	sourceStripes = 256
	// updateStream is the PCG stream of the serialized update RNG; the
	// kernel's pool worker wk draws from stream updateStream<<16 + wk.
	updateStream = 0x9a6e
)

// Maintainer serves PageRank estimates over a dynamic graph. Estimates may
// be read concurrently with updates; updates run serialized by default and
// concurrently under striped locks with Config.UpdateWorkers > 1.
type Maintainer struct {
	soc   *socialstore.Store
	walks *walkstore.Store
	eng   *engine.Engine
	k     *repair.Kernel
	cfg   Config

	mu        sync.Mutex     // serializes ApplyEdge and the serialized ApplyEdges path
	serial    *repair.Worker // guarded by mu
	serialPCG *rand.PCG      // source behind serial's RNG, retained for state capture

	knownMu sync.Mutex
	known   map[graph.NodeID]bool // nodes owning R segments

	srcMu *stripes.MutexSet
	cnt   counters
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
	eng := engine.New(soc.Graph(), walks, engine.Config{
		Eps: cfg.Eps, R: cfg.R, Workers: cfg.Workers, Seed: cfg.Seed,
	})
	pcg := rand.NewPCG(cfg.Seed, updateStream)
	return &Maintainer{
		soc:   soc,
		walks: walks,
		eng:   eng,
		k: repair.New(walks, soc, repair.Config{
			Eps: cfg.Eps, Tail: repair.ResetTail, Workers: cfg.UpdateWorkers,
			Seed: cfg.Seed, Stream: updateStream, CompactEvery: cfg.CompactEvery,
		}),
		cfg:       cfg,
		serial:    repair.NewWorker(rand.New(pcg), soc),
		serialPCG: pcg,
		known:     make(map[graph.NodeID]bool),
		srcMu:     stripes.NewMutexSet(sourceStripes),
	}
}

// Recover returns a maintainer resuming over a recovered walk store: every
// node already in the graph is marked known (they owned their R segments
// when the store was persisted), so no Bootstrap runs and no arrival re-seeds
// them. Restore the update RNG with RestoreUpdateRNGState before applying
// edges to continue the persisted run bitwise.
func Recover(soc *socialstore.Store, cfg Config, walks *walkstore.Store) *Maintainer {
	m := NewWithStore(soc, cfg, walks)
	m.knownMu.Lock()
	for _, v := range soc.Graph().Nodes() {
		m.known[v] = true
	}
	m.knownMu.Unlock()
	return m
}

// UpdateRNGState serializes the serialized-path update RNG. Persisted in a
// commit marker alongside the edge cursor, it is the missing half of an
// exact resume: the walk store fixes the segments, this fixes the coin
// flips the next repair will draw.
func (m *Maintainer) UpdateRNGState() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, err := m.serialPCG.MarshalBinary()
	if err != nil { // the PCG marshaler cannot fail
		panic(err)
	}
	return b
}

// RestoreUpdateRNGState rewinds the serialized-path update RNG to a state
// captured by UpdateRNGState.
func (m *Maintainer) RestoreUpdateRNGState(b []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.serialPCG.UnmarshalBinary(b)
}

// Store returns the maintainer's walk store (the paper's PageRank Store).
func (m *Maintainer) Store() *walkstore.Store { return m.walks }

// Social returns the call-accounted graph store.
func (m *Maintainer) Social() *socialstore.Store { return m.soc }

// Bootstrap generates cfg.R segments for every node currently in the graph
// using the parallel engine and marks those nodes as owned. It returns the
// number of walk steps stored. Bootstrap is the paper's offline
// preprocessing pass; it walks the graph directly and is not call-accounted.
// Call it exactly once, before the first ApplyEdge.
func (m *Maintainer) Bootstrap() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	nodes := m.soc.Graph().Nodes()
	steps := m.eng.BuildStore(nodes)
	m.knownMu.Lock()
	for _, v := range nodes {
		m.known[v] = true
	}
	m.knownMu.Unlock()
	return steps
}

// ApplyEdge consumes one edge arrival: it writes the edge through the social
// store, repairs the affected stored walks (taking the fast path when the
// skip coin allows), and seeds R fresh segments for any endpoint seen for
// the first time. Always serialized; use ApplyEdges with UpdateWorkers for
// concurrent consumption.
func (m *Maintainer) ApplyEdge(ed graph.Edge) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.applyOne(ed, m.serial)
}

// ApplyEdges consumes a batch of arrivals. With Config.UpdateWorkers <= 1
// the arrivals are applied in order by one goroutine (fully reproducible per
// seed); with more workers they are claimed from a shared cursor and applied
// concurrently — arrivals from the same source stripe stay mutually ordered
// by the stripe lock, everything else interleaves, and the result is
// reproducible in distribution rather than per seed.
func (m *Maintainer) ApplyEdges(edges []graph.Edge) {
	if m.cfg.UpdateWorkers > 1 {
		// Pre-group the storm by source stripe: consecutive claims then hit
		// the same counter stripe and source lock, so each worker's cache
		// lines stay warm. Same-stripe arrivals keep their relative stream
		// order (the grouping is a stable permutation); cross-stripe order
		// was never guaranteed on the parallel path.
		order := walkstore.GroupByStripe(len(edges), func(i int) graph.NodeID { return edges[i].From })
		m.k.Pool(len(edges), order, nil, func(i int, w *repair.Worker) { m.applyOne(edges[i], w) })
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ed := range edges {
		m.applyOne(ed, m.serial)
	}
}

// applyOne is one arrival: one unsided repair phase at the source. With
// u's new out-degree d from the write's reply, each stored step out of u
// switches to the new edge with probability 1/d — or, when d == 1, each walk
// that died at the formerly dangling u continues with probability 1-eps
// (repair.Kernel.Arrive).
func (m *Maintainer) applyOne(ed graph.Edge, w *repair.Worker) {
	m.cnt.arrivals.Add(1)
	u, v := ed.From, ed.To
	lk := m.srcMu.Of(uint64(u))
	lk.Lock()
	d, _ := m.soc.AddEdge(u, v) // u's new out-degree rides the write's reply
	// Repair walks sampled before this edge existed, then seed new
	// endpoints: freshly seeded walks already sample the new edge, so
	// rerouting them too would over-weight it.
	w.Reset()
	m.k.Arrive(w, u, v, walkstore.Unsided, d, m.cfg.Eps)
	lk.Unlock()
	m.ensureNode(u, w)
	m.ensureNode(v, w)
	m.k.MaybeCompact()
}

// ensureNode seeds R fresh segments for a node first seen mid-stream,
// preserving the invariant that every known node owns R walks. The claim is
// made under knownMu so exactly one arrival seeds a node; the walks
// themselves are sampled outside the lock.
func (m *Maintainer) ensureNode(v graph.NodeID, w *repair.Worker) {
	m.knownMu.Lock()
	if m.known[v] {
		m.knownMu.Unlock()
		return
	}
	m.known[v] = true
	m.knownMu.Unlock()
	paths := make([][]graph.NodeID, m.cfg.R)
	for i := range paths {
		seg := walk.PageRank(w.NB, v, m.cfg.Eps, w.RNG)
		paths[i] = seg.Path
		m.k.Cnt.StepsIn.Add(int64(len(seg.Path)))
	}
	m.walks.AddBatch(paths)
	m.cnt.seeded.Add(int64(len(paths)))
}

// Estimate returns the PageRank estimate of v: X_v / TotalVisits, the
// dangling-robust normalization of the paper's eps·X_v/(nR) (identical on
// dangling-free graphs, where E[TotalVisits] = nR/eps). Safe to call
// concurrently with updates: the numerator is read under v's counter stripe
// and the denominator atomically, so the ratio's skew is bounded by the
// mutations in flight.
func (m *Maintainer) Estimate(v graph.NodeID) float64 {
	m.cnt.estimates.Add(1)
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
	m.cnt.estimates.Add(1)
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
	m.cnt.estimates.Add(1)
	m.soc.CountFetch()
	return topk.TopKShares(k, m.walks.EachVisitCount)
}

// Counters returns a snapshot of the update-path accounting.
func (m *Maintainer) Counters() Counters {
	return m.cnt.snapshot(&m.k.Cnt)
}
