package salsa

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

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
	// Eps is the reset probability flipped before every forward step, in
	// (0, 1]. Expected segment length is 1 + 2(1-Eps)/Eps nodes.
	Eps float64
	// R is the number of stored segments per node per side (the paper's R):
	// every node owns R forward-first (hub-start) and R backward-first
	// (authority-start) walks.
	R int
	// Workers sizes the Bootstrap worker pool; 0 means GOMAXPROCS.
	Workers int
	// UpdateWorkers sizes the pool ApplyEdges uses to consume arrivals
	// concurrently under (source, target) stripe-pair locks; 0 or 1 keeps
	// the fully serialized, per-seed-reproducible path. See
	// docs/DESIGN.md#6-concurrency-model for the relaxation to
	// distributional reproducibility.
	UpdateWorkers int
	// Seed seeds bootstrap walk generation, the update RNG, and the
	// per-query RNG streams. Walk contents are chunk-deterministic for any
	// worker count; with Workers=1 and UpdateWorkers<=1 a run is fully
	// reproducible including segment IDs.
	Seed uint64
	// QueryWalks is the number of Monte Carlo walks a personalized query
	// runs; 0 means 1024.
	QueryWalks int
	// CompactEvery, when positive, checks the arena every CompactEvery-th
	// completed mutation (arrival or deletion) and runs Store.Compact when
	// at least a quarter of it is garbage (Store.MaybeCompact), reclaiming
	// what ReplaceTail leaves behind without repeatedly copying a
	// mostly-live arena. Compaction changes no logical state — estimates,
	// epochs, and the mutation log are all untouched — so fixed-seed runs
	// are bitwise identical with it on or off. See
	// docs/DESIGN.md#11-batching--compaction.
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
	SlowNoops  int64 // slow paths that sampled no reroute: always 0, see below
	Rerouted   int64 // segments redirected through a new edge mid-path
	Revived    int64 // segments extended past a terminal that gained its needed edge
	Seeded     int64 // segments generated for nodes first seen mid-stream
	StepsIn    int64 // visits added by reroutes, revivals, and seeding
	StepsOut   int64 // visits removed by reroutes
	Queries    int64 // personalized queries served

	// SlowNoops == 0 holds by construction: each skip coin is its phase's
	// "at least one step switches" indicator, and on heads the first switch
	// is drawn before the scan, which performs it. The field stays for
	// readers that assert the invariant.

	// Deletion-path accounting. Deletions have no skip coin (no counter
	// tracks steps through one specific edge), so they never touch the
	// arrival counters above — the FastSkips+EmptySkips+SlowPaths ==
	// 2*Arrivals identity and SlowNoops == 0 both survive churn streams.
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

// counters is the live atomic accounting, beside the kernel's phase
// counts, shared by the serialized and parallel update paths and the
// concurrent query layer.
type counters struct {
	arrivals, seeded, queries             atomic.Int64
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
		Queries:      c.queries.Load(),
		Deletions:    c.deletions.Load(),
		DelMisses:    c.delMisses.Load(),
		DelRerouted:  k.DelRerouted.Load(),
		DelTruncated: k.DelTruncated.Load(),
		Suspects:     c.suspects.Load(),
		Swept:        c.swept.Load(),
	}
}

const (
	// endpointStripes serializes writes by endpoint: out-degree moves only
	// on writes from a source, in-degree only on writes to a target, so
	// locking the (source, target) stripe pair makes the write and both
	// repair phases atomic per endpoint — the phases' degrees are the
	// write's own reply. A repair's first step out of either endpoint is
	// therefore ordered with every deletion of that step's edge, which holds
	// the same endpoint's stripe; that is why it need not be watched by the
	// straggler sweep.
	endpointStripes = 256
	// updateStream is the PCG stream of the serialized update RNG; the
	// kernel's pool worker wk draws from stream updateStream<<16 + wk.
	updateStream = 0x5a15a
)

// Maintainer keeps R alternating walk segments per node per side fresh under
// an edge stream and serves global and personalized SALSA scores from them.
// Global reads and personalized queries may run concurrently with updates;
// updates run serialized by default and concurrently under striped locks
// with Config.UpdateWorkers > 1.
type Maintainer struct {
	soc   *socialstore.Store
	walks *walkstore.Store
	k     *repair.Kernel
	cfg   Config

	mu        sync.Mutex     // serializes ApplyEdge and the serialized ApplyEdges path
	serial    *repair.Worker // guarded by mu
	serialPCG *rand.PCG      // source behind serial's RNG, retained for state capture

	knownMu sync.Mutex
	known   map[graph.NodeID]bool // nodes owning their 2R segments

	endMu *stripes.MutexSet
	cnt   counters

	// arrivalObs, when set, is called after each graph mutation's repair
	// completes — arrivals (edge written, both repair phases done, endpoints
	// seeded) and deletions (edge removed, both unroute phases done) alike.
	// Under UpdateWorkers > 1 it is called concurrently from every worker;
	// the observer must be safe for that. See SetArrivalObserver.
	arrivalObs func(graph.Edge)
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
func (m *Maintainer) SetArrivalObserver(f func(graph.Edge)) { m.arrivalObs = f }

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
	pcg := rand.NewPCG(cfg.Seed, updateStream)
	return &Maintainer{
		soc:   soc,
		walks: walks,
		k: repair.New(walks, soc, repair.Config{
			Eps: cfg.Eps, Tail: repair.AlternatingTail, Workers: cfg.UpdateWorkers,
			Seed: cfg.Seed, Stream: updateStream, CompactEvery: cfg.CompactEvery,
		}),
		cfg:       cfg,
		serial:    repair.NewWorker(rand.New(pcg), soc),
		serialPCG: pcg,
		known:     make(map[graph.NodeID]bool),
		endMu:     stripes.NewMutexSet(endpointStripes),
	}
}

// Recover returns a maintainer resuming over a recovered walk store: every
// node already in the graph is marked known (they owned their 2R sided
// segments when the store was persisted), so no Bootstrap runs and no
// arrival re-seeds them. Restore the update RNG with RestoreUpdateRNGState
// before applying edges to continue the persisted run bitwise.
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

// Store returns the maintainer's walk store.
func (m *Maintainer) Store() *walkstore.Store { return m.walks }

// Social returns the call-accounted graph store.
func (m *Maintainer) Social() *socialstore.Store { return m.soc }

// Bootstrap generates R forward-first and R backward-first segments for
// every node currently in the graph and marks those nodes as owned. It
// returns the number of walk steps stored. Like the PageRank bootstrap this
// is the offline preprocessing pass: it walks the graph directly and is not
// call-accounted. Nodes are claimed in fixed-size chunks, each walked with
// its own PCG(Seed, chunkIndex) source, so the generated paths are identical
// for any worker count. Call it exactly once, before the first ApplyEdge.
func (m *Maintainer) Bootstrap() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.soc.Graph()
	nodes := g.Nodes()
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
	m.knownMu.Lock()
	for _, v := range nodes {
		m.known[v] = true
	}
	m.knownMu.Unlock()
	return steps.Load()
}

// ApplyEdge consumes one edge arrival: it writes the edge through the social
// store, repairs the stored walks whose forward steps leave the source or
// whose backward steps leave the target (the paper's reroute rule adapted to
// bipartite alternation), and seeds 2R fresh segments for any endpoint seen
// for the first time. Always serialized; use ApplyEdges with UpdateWorkers
// for concurrent consumption.
func (m *Maintainer) ApplyEdge(ed graph.Edge) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.applyOne(ed, m.serial)
}

// ApplyEdges consumes a batch of arrivals. With Config.UpdateWorkers <= 1
// they are applied in order by one goroutine; with more workers they are
// claimed from a shared cursor and applied concurrently — arrivals sharing a
// source or target stripe stay mutually ordered by the stripe-pair locks,
// and the result is reproducible in distribution rather than per seed.
func (m *Maintainer) ApplyEdges(edges []graph.Edge) {
	if m.cfg.UpdateWorkers > 1 {
		// Pre-group the storm by source stripe: consecutive claims then hit
		// the same counter stripe and endpoint locks, so each worker's cache
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

// applyOne is one arrival: a forward repair phase at the source, then a
// backward one at the target.
func (m *Maintainer) applyOne(ed graph.Edge, w *repair.Worker) {
	m.cnt.arrivals.Add(1)
	u, v := ed.From, ed.To
	// One arrival holds its source and target endpoint stripes for both
	// repair phases: out-degree moves only on writes from u and in-degree
	// only on writes to v, so both degrees in the write's reply still hold
	// when the phases run, and the forward-then-backward phase pair of one
	// arrival never interleaves with another write sharing an endpoint
	// stripe. Source-role and target-role keys are kept in disjoint key
	// spaces (2u vs 2v+1) so an arrival from a node does not falsely
	// serialize with one into it.
	li, lj := m.endMu.LockPair(2*uint64(u), 2*uint64(v)+1)
	dout, din := m.soc.AddEdge(u, v)
	w.Reset()
	// Forward phase: stored forward steps from u now have a d-th choice, or
	// forward-pending walks ended at a u that had no out-edge continue with
	// probability 1-eps.
	m.k.Arrive(w, u, v, walkstore.SideForward, dout, m.cfg.Eps)
	// Backward phase: stored backward steps from v now have a d-th choice.
	// Runs after the forward phase so it can exclude the positions that
	// phase just regenerated (they already sampled the new edge). A walk
	// pauses before a backward step with no reset coin, so when v gains its
	// first in-edge every walk that died there continues: eps 0.
	m.k.Arrive(w, v, u, walkstore.SideBackward, din, 0)
	m.endMu.UnlockPair(li, lj)
	// Seed new endpoints last: freshly seeded walks already sample the new
	// edge, so repairing them too would over-weight it.
	m.ensureNode(u, w)
	m.ensureNode(v, w)
	// Bump-after ordering: the observer fires only once every store and
	// graph effect of the arrival is visible, so a cache entry validated
	// after the bump cannot have missed this arrival.
	if m.arrivalObs != nil {
		m.arrivalObs(ed)
	}
	m.k.MaybeCompact()
}

// ensureNode seeds R segments per side for a node first seen mid-stream,
// preserving the invariant that every known node owns 2R walks. The claim is
// made under knownMu so exactly one arrival seeds a node; the walks are
// sampled outside the lock.
func (m *Maintainer) ensureNode(v graph.NodeID, w *repair.Worker) {
	m.knownMu.Lock()
	if m.known[v] {
		m.knownMu.Unlock()
		return
	}
	m.known[v] = true
	m.knownMu.Unlock()
	pathsF := make([][]graph.NodeID, m.cfg.R)
	pathsB := make([][]graph.NodeID, m.cfg.R)
	for i := 0; i < m.cfg.R; i++ {
		segF := walk.Salsa(w.NB, v, walk.Forward, m.cfg.Eps, w.RNG)
		pathsF[i] = segF.Path
		segB := walk.Salsa(w.NB, v, walk.Backward, m.cfg.Eps, w.RNG)
		pathsB[i] = segB.Path
		m.k.Cnt.StepsIn.Add(int64(len(segF.Path) + len(segB.Path)))
	}
	m.walks.AddBatchSided(pathsF, walkstore.SideForward)
	m.walks.AddBatchSided(pathsB, walkstore.SideBackward)
	m.cnt.seeded.Add(int64(2 * m.cfg.R))
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
	return m.cnt.snapshot(&m.k.Cnt)
}
