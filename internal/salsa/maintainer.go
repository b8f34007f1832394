package salsa

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"fastppr/internal/graph"
	"fastppr/internal/socialstore"
	"fastppr/internal/stats"
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

// counters is the live atomic accounting shared by the serialized and
// parallel update paths and the concurrent query layer.
type counters struct {
	arrivals, fastSkips, emptySkips, slowPaths      atomic.Int64
	rerouted, revived, seeded, stepsIn, stepsOut    atomic.Int64
	queries                                         atomic.Int64
	deletions, delMisses, delRerouted, delTruncated atomic.Int64
	suspects, swept                                 atomic.Int64
}

func (c *counters) snapshot() Counters {
	return Counters{
		Arrivals:     c.arrivals.Load(),
		FastSkips:    c.fastSkips.Load(),
		EmptySkips:   c.emptySkips.Load(),
		SlowPaths:    c.slowPaths.Load(),
		Rerouted:     c.rerouted.Load(),
		Revived:      c.revived.Load(),
		Seeded:       c.seeded.Load(),
		StepsIn:      c.stepsIn.Load(),
		StepsOut:     c.stepsOut.Load(),
		Queries:      c.queries.Load(),
		Deletions:    c.deletions.Load(),
		DelMisses:    c.delMisses.Load(),
		DelRerouted:  c.delRerouted.Load(),
		DelTruncated: c.delTruncated.Load(),
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
	// segmentStripes freezes the segments a repair phase scans.
	segmentStripes = 512
)

// updater is one update goroutine's private state: RNG, reusable buffers,
// and the per-arrival touched map (segments whose tail this arrival already
// regenerated; the backward phase must not flip coins on freshly sampled
// steps).
type updater struct {
	rng *rand.Rand
	// nb samples regrown tails and seeded walks: the social store, or during
	// a parallel deletion batch a walk.Recorder over it that notes every step
	// on one of the batch's deleted edges for the straggler sweep.
	nb      walk.Neighborer
	keys    []uint64
	idx     []int
	hits    []walkstore.PosHit
	segs    []walkstore.SegmentID
	paths   [][]graph.NodeID
	touched touchedSet

	// Deferred-write state: redirect samples fresh tails into tailBuf and
	// records a pendingMut per mutation; flushMuts applies the whole
	// phase's mutations through one stripe-grouped ReplaceTailBatch pass.
	tailBuf []graph.NodeID
	muts    []pendingMut
	tms     []walkstore.TailMutation
}

func newUpdater(rng *rand.Rand, nb walk.Neighborer) *updater { return &updater{rng: rng, nb: nb} }

// pendingMut is one deferred ReplaceTail: the repair phase samples the fresh
// tail inline (preserving the exact RNG consumption order) into w.tailBuf and
// defers the store write until the phase's flush. start == end records a pure
// truncation (deletion-path revival in reverse).
type pendingMut struct {
	id         walkstore.SegmentID
	keep       int
	start, end int // w.tailBuf[start:end] is the fresh tail
}

// touchedSet records the segments whose tail this arrival already
// regenerated (id -> first fresh path position). A flat pair of parallel
// slices, not a map: an arrival touches a handful of segments and the map's
// per-lookup hashing was visible in the storm profile.
type touchedSet struct {
	ids   []walkstore.SegmentID
	keeps []int
}

func (t *touchedSet) reset() {
	t.ids = t.ids[:0]
	t.keeps = t.keeps[:0]
}

func (t *touchedSet) set(id walkstore.SegmentID, keep int) {
	t.ids = append(t.ids, id)
	t.keeps = append(t.keeps, keep)
}

func (t *touchedSet) get(id walkstore.SegmentID) (int, bool) {
	for i, x := range t.ids {
		if x == id {
			return t.keeps[i], true
		}
	}
	return 0, false
}

func (w *updater) lockSegments(set *stripes.MutexSet, ids []walkstore.SegmentID) []int {
	w.keys = w.keys[:0]
	for _, id := range ids {
		w.keys = append(w.keys, uint64(id))
	}
	w.idx = set.LockKeys(w.keys, w.idx)
	return w.idx
}

// Maintainer keeps R alternating walk segments per node per side fresh under
// an edge stream and serves global and personalized SALSA scores from them.
// Global reads and personalized queries may run concurrently with updates;
// updates run serialized by default and concurrently under striped locks
// with Config.UpdateWorkers > 1.
type Maintainer struct {
	soc   *socialstore.Store
	walks *walkstore.Store
	cfg   Config

	mu        sync.Mutex // serializes ApplyEdge and the serialized ApplyEdges path
	serial    *updater   // guarded by mu
	serialPCG *rand.PCG  // source behind serial's RNG, retained for state capture

	knownMu sync.Mutex
	known   map[graph.NodeID]bool // nodes owning their 2R segments

	endMu *stripes.MutexSet
	segMu *stripes.MutexSet
	cnt   counters

	// compactTick counts completed mutations toward Config.CompactEvery.
	compactTick atomic.Int64

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
	pcg := rand.NewPCG(cfg.Seed, 0x5a15a)
	return &Maintainer{
		soc:       soc,
		walks:     walks,
		cfg:       cfg,
		serial:    newUpdater(rand.New(pcg), soc),
		serialPCG: pcg,
		known:     make(map[graph.NodeID]bool),
		endMu:     stripes.NewMutexSet(endpointStripes),
		segMu:     stripes.NewMutexSet(segmentStripes),
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
		m.applyParallel(edges, m.cfg.UpdateWorkers)
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ed := range edges {
		m.applyOne(ed, m.serial)
	}
}

func (m *Maintainer) applyParallel(edges []graph.Edge, workers int) {
	// Pre-group the storm by source stripe: consecutive claims then hit the
	// same counter stripe and endpoint locks, so each worker's cache lines
	// stay warm. Same-stripe arrivals keep their relative stream order (the
	// grouping is a stable permutation); cross-stripe order was never
	// guaranteed on the parallel path.
	order := walkstore.GroupByStripe(len(edges), func(i int) graph.NodeID { return edges[i].From })
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			w := newUpdater(rand.New(rand.NewPCG(m.cfg.Seed, 0x5a15a0000+uint64(wk))), m.soc)
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(edges) {
					break
				}
				m.applyOne(edges[order[i]], w)
			}
		}(wk)
	}
	wg.Wait()
}

func (m *Maintainer) applyOne(ed graph.Edge, w *updater) {
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
	w.touched.reset()
	// Forward phase: stored forward steps from u now have a d-th choice.
	if dout == 1 {
		m.reviveForward(u, v, w)
	} else {
		m.rerouteForward(u, v, dout, w)
	}
	// Backward phase: stored backward steps from v now have a d-th choice.
	// Runs after the forward phase so it can exclude the positions that
	// phase just regenerated (they already sampled the new edge).
	if din == 1 {
		m.reviveBackward(v, u, w)
	} else {
		m.rerouteBackward(v, u, din, w)
	}
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
	m.maybeCompact()
}

// freeze prepares one repair phase's candidate enumeration at node n for
// pending direction dir: it probes the sided pending-position index, locks
// the involved segments under the SegmentID stripes, and — on the parallel
// path — re-reads the index under those locks so every hit position is
// exact, dropping hits of segments another worker mutated into n after the
// probe (they are simply not part of this arrival's frozen enumeration).
func (m *Maintainer) freeze(n graph.NodeID, dir walkstore.Side, w *updater) (hits []walkstore.PosHit, held []int) {
	w.hits = m.walks.AppendPendingPositions(w.hits[:0], n, dir)
	w.segs = walkstore.DistinctSegments(w.segs, w.hits)
	held = w.lockSegments(m.segMu, w.segs)
	if m.cfg.UpdateWorkers > 1 {
		// Another worker may have mutated a probed segment between the probe
		// and the freeze; re-read now that the segments cannot move.
		w.hits = m.walks.AppendPendingPositions(w.hits[:0], n, dir)
		w.hits = walkstore.KeepSegments(w.hits, w.segs)
	}
	// Bulk-fetch the frozen segments' paths under one segment-lock
	// acquisition; the scans walk them via a cursor over w.segs.
	w.paths = m.walks.AppendPaths(w.paths, w.segs)
	return w.hits, held
}

// groupPath returns the frozen path of segment id, advancing the scan's
// cursor over the (sorted) frozen segment set. Hit groups arrive in
// ascending segment order, so the cursor only ever moves forward.
func groupPath(w *updater, g *int, id walkstore.SegmentID) []graph.NodeID {
	for w.segs[*g] != id {
		*g++
	}
	return w.paths[*g]
}

// rerouteForward repairs stored walks after u's out-degree rose to d >= 2:
// every stored forward step from u independently switches to the new edge
// with probability 1/d; a switched segment keeps its prefix, steps to v, and
// continues with a fresh alternating tail (backward next). The skip coin
// flips against the stripe-consistent sided candidate counter; the scan runs
// over segments frozen under SegmentID stripe locks and retries against the
// frozen enumeration if cross-stripe interference shifted the count, so
// SlowNoops == 0 holds under parallel arrivals too.
func (m *Maintainer) rerouteForward(u, v graph.NodeID, d int, w *updater) {
	k := m.walks.PendingCandidates(u, walkstore.SideForward)
	// <= 0: under parallel arrivals a cross-stripe mutation mid-index can
	// transiently read the counter pair as negative; classify as empty.
	if k <= 0 {
		m.cnt.emptySkips.Add(1)
		return
	}
	inv := 1.0 / float64(d)
	if w.rng.Float64() < math.Pow(1-inv, float64(k)) {
		m.cnt.fastSkips.Add(1)
		return
	}
	// first is the global index (over the fixed enumeration of all k
	// candidate steps) of the first switch, pre-sampled now that the skip
	// coin came up heads.
	first := stats.TruncatedGeometric(w.rng, inv, k)
	hits, held := m.freeze(u, walkstore.SideForward, w)
	defer m.segMu.UnlockSet(held)
	defer m.flushMuts(w)
	for {
		rerouted, seen := m.forwardScanIndexed(hits, v, inv, first, w)
		switch {
		case rerouted > 0:
			m.cnt.slowPaths.Add(1)
			m.cnt.rerouted.Add(rerouted)
			return
		case seen == 0:
			m.cnt.emptySkips.Add(1)
			return
		}
		first = stats.TruncatedGeometric(w.rng, inv, seen)
	}
}

// forwardScanIndexed runs the forward-phase coin pass over the frozen
// forward-pending position hits of u: every non-terminal hit is one stored
// forward step (the index guarantees node and parity), enumerated in
// (segment, position) order, the order the pre-sampled first-switch index is
// drawn over. A segment's hits after its own reroute this pass are
// superseded but keep their enumeration slots.
func (m *Maintainer) forwardScanIndexed(hits []walkstore.PosHit, v graph.NodeID, inv float64, first int64, w *updater) (rerouted, seen int64) {
	idx := int64(0)
	g := 0
	for i := 0; i < len(hits); {
		id := hits[i].Seg
		j := i
		for j < len(hits) && hits[j].Seg == id {
			j++
		}
		p := groupPath(w, &g, id) // stable: ReplaceTail relocates, never mutates
		pos := -1
		for _, h := range hits[i:j] {
			hp := int(h.Pos)
			if hp >= len(p)-1 {
				continue // terminal visit: no stored step to capture
			}
			if pos >= 0 {
				idx++ // superseded by this segment's reroute; slot still counts
				continue
			}
			if stats.FirstSuccessHit(w.rng, first, idx, inv) {
				pos = hp
			}
			idx++
		}
		i = j
		if pos < 0 {
			continue
		}
		m.redirect(id, pos+1, v, walk.Backward, w)
		w.touched.set(id, pos+1)
		rerouted++
	}
	return rerouted, idx
}

// reviveForward repairs stored walks after u gained its very first out-edge.
// While u had no out-edges every walk pausing there before a forward step
// ended — by the reset coin with probability eps, by the missing edge
// otherwise — so each stored forward-pending terminal at u now continues
// with probability 1-eps, necessarily through the new edge.
func (m *Maintainer) reviveForward(u, v graph.NodeID, w *updater) {
	t := m.walks.PendingTerminals(u, walkstore.SideForward)
	if t <= 0 {
		m.cnt.emptySkips.Add(1)
		return
	}
	eps := m.cfg.Eps
	if w.rng.Float64() < math.Pow(eps, float64(t)) {
		m.cnt.fastSkips.Add(1)
		return
	}
	first := stats.TruncatedGeometric(w.rng, 1-eps, t)
	hits, held := m.freeze(u, walkstore.SideForward, w)
	defer m.segMu.UnlockSet(held)
	defer m.flushMuts(w)
	for {
		revived, seen := m.reviveForwardScanIndexed(hits, v, eps, first, w)
		switch {
		case revived > 0:
			m.cnt.slowPaths.Add(1)
			m.cnt.revived.Add(revived)
			return
		case seen == 0:
			m.cnt.emptySkips.Add(1)
			return
		}
		first = stats.TruncatedGeometric(w.rng, 1-eps, seen)
	}
}

// reviveForwardScanIndexed runs one continuation pass over frozen
// forward-pending hits: the revival candidates are exactly the terminal hits
// (position == last path index), enumerated in ascending segment order.
func (m *Maintainer) reviveForwardScanIndexed(hits []walkstore.PosHit, v graph.NodeID, eps float64, first int64, w *updater) (revived, seen int64) {
	idx := int64(0)
	g := 0
	for i := 0; i < len(hits); {
		id := hits[i].Seg
		j := i
		for j < len(hits) && hits[j].Seg == id {
			j++
		}
		p := groupPath(w, &g, id)
		if int(hits[j-1].Pos) == len(p)-1 { // terminal hit: forward-pending end at u
			cont := stats.FirstSuccessHit(w.rng, first, idx, 1-eps)
			idx++
			if cont {
				m.redirect(id, len(p), v, walk.Backward, w)
				w.touched.set(id, len(p))
				revived++
			}
		}
		i = j
	}
	return revived, idx
}

// rerouteBackward repairs stored walks after v's in-degree rose to d >= 2:
// every stored backward step from v switches to the new in-neighbor u with
// probability 1/d. Only steps stored before this arrival participate:
// positions the forward phase just regenerated were sampled on the new graph
// and are excluded from both the skip-coin exponent and the scan.
func (m *Maintainer) rerouteBackward(v, u graph.NodeID, d int, w *updater) {
	k := m.walks.PendingCandidates(v, walkstore.SideBackward)
	for ti, id := range w.touched.ids {
		keep := w.touched.keeps[ti]
		side := m.walks.SideOf(id)
		p := m.walks.Path(id)
		for i := keep; i < len(p)-1; i++ {
			if p[i] == v && side.PendingAt(i) == walkstore.SideBackward {
				k--
			}
		}
	}
	if k <= 0 {
		m.cnt.emptySkips.Add(1)
		return
	}
	inv := 1.0 / float64(d)
	if w.rng.Float64() < math.Pow(1-inv, float64(k)) {
		m.cnt.fastSkips.Add(1)
		return
	}
	first := stats.TruncatedGeometric(w.rng, inv, k)
	hits, held := m.freeze(v, walkstore.SideBackward, w)
	defer m.segMu.UnlockSet(held)
	defer m.flushMuts(w)
	for {
		rerouted, seen := m.backwardScanIndexed(hits, u, inv, first, w)
		switch {
		case rerouted > 0:
			m.cnt.slowPaths.Add(1)
			m.cnt.rerouted.Add(rerouted)
			return
		case seen == 0:
			m.cnt.emptySkips.Add(1)
			return
		}
		first = stats.TruncatedGeometric(w.rng, inv, seen)
	}
}

// backwardScanIndexed runs the backward-phase coin pass over the frozen
// backward-pending hits of v, excluding terminal hits and — for segments the
// forward phase just regenerated — hits at or beyond the first fresh
// position (those steps were sampled on the new graph).
func (m *Maintainer) backwardScanIndexed(hits []walkstore.PosHit, u graph.NodeID, inv float64, first int64, w *updater) (rerouted, seen int64) {
	idx := int64(0)
	g := 0
	for i := 0; i < len(hits); {
		id := hits[i].Seg
		j := i
		for j < len(hits) && hits[j].Seg == id {
			j++
		}
		p := groupPath(w, &g, id)
		end := len(p) - 1 // candidates are non-terminal visits
		if keep, ok := w.touched.get(id); ok && keep < end {
			end = keep // positions >= keep are fresh
		}
		pos := -1
		for _, h := range hits[i:j] {
			hp := int(h.Pos)
			if hp >= end {
				continue
			}
			if pos >= 0 {
				idx++ // superseded slot
				continue
			}
			if stats.FirstSuccessHit(w.rng, first, idx, inv) {
				pos = hp
			}
			idx++
		}
		i = j
		if pos < 0 {
			continue
		}
		m.redirect(id, pos+1, u, walk.Forward, w)
		rerouted++
	}
	return rerouted, idx
}

// reviveBackward repairs stored walks after v gained its very first in-edge.
// A walk pauses before a backward step with no reset coin, so while v had no
// in-edges every such walk died there deterministically — and now every one
// of them continues, necessarily to u, with probability 1: the backward
// analogue of revival has no coin to flip. An interference-emptied terminal
// set downgrades to EmptySkips; there is no coin whose promise could be
// broken.
func (m *Maintainer) reviveBackward(v, u graph.NodeID, w *updater) {
	t := m.walks.PendingTerminals(v, walkstore.SideBackward)
	if t <= 0 {
		m.cnt.emptySkips.Add(1)
		return
	}
	hits, held := m.freeze(v, walkstore.SideBackward, w)
	defer m.segMu.UnlockSet(held)
	defer m.flushMuts(w)
	revived := int64(0)
	g := 0
	for i := 0; i < len(hits); {
		id := hits[i].Seg
		j := i
		for j < len(hits) && hits[j].Seg == id {
			j++
		}
		p := groupPath(w, &g, id)
		last := len(p) - 1
		if int(hits[j-1].Pos) == last { // terminal hit: backward-pending end at v
			// A tail regenerated this arrival cannot end backward-pending at
			// v (v already has the new in-edge), so this guard is
			// unreachable; it keeps the phase safe against double-sampling
			// regardless.
			if keep, ok := w.touched.get(id); !ok || last < keep {
				m.redirect(id, len(p), u, walk.Forward, w)
				revived++
			}
		}
		i = j
	}
	if revived > 0 {
		m.cnt.slowPaths.Add(1)
		m.cnt.revived.Add(revived)
	} else {
		m.cnt.emptySkips.Add(1)
	}
}

// redirect truncates segment id to keep nodes, steps it to `to`, and extends
// it with a fresh alternating tail whose next step has direction nextDir,
// sampled through the social store. Parity is preserved: position keep's
// pending direction is automatically nextDir. Callers hold the segment's
// stripe lock. The tail is sampled here, inline, so the RNG draws in
// candidate order; only the store write waits for the phase's flushMuts.
func (m *Maintainer) redirect(id walkstore.SegmentID, keep int, to graph.NodeID, nextDir walk.Direction, w *updater) {
	start := len(w.tailBuf)
	w.tailBuf = append(w.tailBuf, to)
	w.tailBuf = walk.AppendContinueSalsa(w.nb, to, nextDir, m.cfg.Eps, w.rng, w.tailBuf)
	w.muts = append(w.muts, pendingMut{id: id, keep: keep, start: start, end: len(w.tailBuf)})
}

// truncate cuts segment id down to keep nodes with no replacement tail (the
// deletion path's reverse revival), deferred alongside the phase's redirects.
func (m *Maintainer) truncate(id walkstore.SegmentID, keep int, w *updater) {
	w.muts = append(w.muts, pendingMut{id: id, keep: keep})
}

// flushMuts applies every tail mutation the current repair phase deferred
// through one stripe-grouped ReplaceTailBatch pass: one arena relocation
// critical section and one counter-stripe lock acquisition per touched
// stripe, instead of one of each per rerouted segment. Phases register it
// with defer immediately after the UnlockSet defer, so it runs (LIFO) while
// the segment stripe locks are still held; a phase's writes are therefore
// fully visible before the next phase probes the store.
func (m *Maintainer) flushMuts(w *updater) {
	// The phase's scans are over. Its frozen paths alias the arena, so they
	// are dropped rather than left in scratch capacity, where a later and
	// shorter freeze would not overwrite them and they would keep an arena
	// that Compact has since replaced reachable.
	clear(w.paths)
	w.paths = w.paths[:0]
	if len(w.muts) == 0 {
		return
	}
	for _, mu := range w.muts {
		var tail []graph.NodeID
		if mu.end > mu.start {
			tail = w.tailBuf[mu.start:mu.end:mu.end]
		}
		w.tms = append(w.tms, walkstore.TailMutation{ID: mu.id, Keep: mu.keep, NewTail: tail})
	}
	removed, added := m.walks.ReplaceTailBatch(w.tms)
	// Likewise the staged tails, which alias a tailBuf that append may by
	// now have outgrown.
	clear(w.tms)
	w.tms = w.tms[:0]
	m.cnt.stepsOut.Add(int64(removed))
	m.cnt.stepsIn.Add(int64(added))
	w.muts = w.muts[:0]
	w.tailBuf = w.tailBuf[:0]
}

// maybeCompact checks the arena's garbage ratio every CompactEvery-th
// completed mutation and compacts when it is worth the copy
// (Store.MaybeCompact). Compact changes no logical state (no epoch,
// stripe-epoch, or journal movement), so its placement relative to the
// arrival observer and to concurrent queries is unconstrained; callers
// just must not hold segment stripe locks across it (they don't — it runs
// after the repair).
func (m *Maintainer) maybeCompact() {
	if m.cfg.CompactEvery <= 0 {
		return
	}
	if m.compactTick.Add(1)%int64(m.cfg.CompactEvery) == 0 {
		m.walks.MaybeCompact()
	}
}

// ensureNode seeds R segments per side for a node first seen mid-stream,
// preserving the invariant that every known node owns 2R walks. The claim is
// made under knownMu so exactly one arrival seeds a node; the walks are
// sampled outside the lock.
func (m *Maintainer) ensureNode(v graph.NodeID, w *updater) {
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
		segF := walk.Salsa(w.nb, v, walk.Forward, m.cfg.Eps, w.rng)
		pathsF[i] = segF.Path
		segB := walk.Salsa(w.nb, v, walk.Backward, m.cfg.Eps, w.rng)
		pathsB[i] = segB.Path
		m.cnt.stepsIn.Add(int64(len(segF.Path) + len(segB.Path)))
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
	return m.cnt.snapshot()
}
