package pagerank

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"

	"fastppr/internal/engine"
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
	// DisableFastPath turns the skip coin off: every arrival fetches the
	// affected segments and flips per-step coins unconditionally. Estimates
	// are drawn from the same distribution either way; the flag exists so
	// tests and benchmarks can demonstrate that.
	DisableFastPath bool
	// LegacyScan makes repair phases enumerate candidates the pre-index way:
	// fetch every visitor of the arrival's source and walk its full path.
	// The default consumes the store's pending-position index instead —
	// O(hits) per phase rather than O(visitors × path length). Both paths
	// enumerate candidates in the identical (segment, position) order and
	// consume the RNG identically, so a fixed-seed serialized run is bitwise
	// the same either way; the flag exists for benchmarks and the
	// equivalence test, not for production use.
	LegacyScan bool
	// CompactEvery, when positive, checks the arena every CompactEvery-th
	// completed mutation (arrival or deletion) and runs Store.Compact when
	// at least a quarter of it is garbage (Store.MaybeCompact), without
	// repeatedly copying a mostly-live arena. Compaction changes no
	// logical state, so fixed-seed runs are bitwise identical with it on
	// or off. See docs/DESIGN.md#11-batching--compaction.
	CompactEvery int
	// UnbatchedWrites routes every repair tail write through an immediate
	// per-segment ReplaceTail instead of the phase-batched ReplaceTailBatch
	// flush. The batched path samples each fresh tail inline (consuming the
	// RNG exactly where the unbatched path would) and only coalesces the
	// store writes, so fixed-seed serialized runs are bitwise identical
	// either way; the flag exists for benchmarks and the equivalence tests.
	UnbatchedWrites bool
}

// Counters is a snapshot of the maintainer's update-path accounting.
type Counters struct {
	Arrivals   int64 // edges consumed
	FastSkips  int64 // arrivals dismissed by the skip coin alone
	EmptySkips int64 // arrivals whose source had no stored walk to perturb
	SlowPaths  int64 // arrivals that fetched segments from the store
	SlowNoops  int64 // slow paths that sampled no reroute (0 while the fast path is on)
	Rerouted   int64 // segments redirected through a new edge mid-path
	Revived    int64 // segments extended past a formerly dangling terminal
	Seeded     int64 // segments generated for nodes first seen mid-stream
	StepsIn    int64 // visits added by reroutes, revivals, and seeding
	StepsOut   int64 // visits removed by reroutes
	Estimates  int64 // Estimate/ApproxAll/TopK calls served

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

// counters is the maintainer's live accounting: atomics, so serialized and
// parallel update paths share one implementation.
type counters struct {
	arrivals, fastSkips, emptySkips, slowPaths, slowNoops atomic.Int64
	rerouted, revived, seeded, stepsIn, stepsOut          atomic.Int64
	estimates                                             atomic.Int64
	deletions, delMisses, delRerouted, delTruncated       atomic.Int64
	suspects, swept                                       atomic.Int64
}

func (c *counters) snapshot() Counters {
	return Counters{
		Arrivals:     c.arrivals.Load(),
		FastSkips:    c.fastSkips.Load(),
		EmptySkips:   c.emptySkips.Load(),
		SlowPaths:    c.slowPaths.Load(),
		SlowNoops:    c.slowNoops.Load(),
		Rerouted:     c.rerouted.Load(),
		Revived:      c.revived.Load(),
		Seeded:       c.seeded.Load(),
		StepsIn:      c.stepsIn.Load(),
		StepsOut:     c.stepsOut.Load(),
		Estimates:    c.estimates.Load(),
		Deletions:    c.deletions.Load(),
		DelMisses:    c.delMisses.Load(),
		DelRerouted:  c.delRerouted.Load(),
		DelTruncated: c.delTruncated.Load(),
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
	// segmentStripes freezes the segments a repair scans, so the scan's
	// candidate enumeration cannot shift underneath the pre-sampled
	// first-switch index.
	segmentStripes = 512
)

// updater is one update goroutine's private state: its RNG and reusable
// buffers. The serialized path owns one; each parallel worker gets its own.
type updater struct {
	rng *rand.Rand
	// nb samples regrown tails and seeded walks: the social store, or during
	// a parallel deletion batch a walk.Recorder over it that notes every step
	// on one of the batch's deleted edges for the straggler sweep.
	nb    walk.Neighborer
	tail  []graph.NodeID
	keys  []uint64
	idx   []int
	hits  []walkstore.PosHit
	segs  []walkstore.SegmentID
	paths [][]graph.NodeID

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

// lockSegments freezes the given segments under the maintainer's
// SegmentID-stripe locks, acquiring stripe indices in ascending order
// (deadlock-free across workers). Returns the held index set for unlock.
func (w *updater) lockSegments(set *stripes.MutexSet, ids []walkstore.SegmentID) []int {
	w.keys = w.keys[:0]
	for _, id := range ids {
		w.keys = append(w.keys, uint64(id))
	}
	w.idx = set.LockKeys(w.keys, w.idx)
	return w.idx
}

// Maintainer serves PageRank estimates over a dynamic graph. Estimates may
// be read concurrently with updates; updates run serialized by default and
// concurrently under striped locks with Config.UpdateWorkers > 1.
type Maintainer struct {
	soc   *socialstore.Store
	walks *walkstore.Store
	eng   *engine.Engine
	cfg   Config

	mu        sync.Mutex // serializes ApplyEdge and the serialized ApplyEdges path
	serial    *updater   // guarded by mu
	serialPCG *rand.PCG  // source behind serial's RNG, retained for state capture

	knownMu sync.Mutex
	known   map[graph.NodeID]bool // nodes owning R segments

	srcMu *stripes.MutexSet
	segMu *stripes.MutexSet
	cnt   counters

	// compactTick counts completed mutations toward Config.CompactEvery.
	compactTick atomic.Int64
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
	pcg := rand.NewPCG(cfg.Seed, 0x9a6e)
	return &Maintainer{
		soc:       soc,
		walks:     walks,
		eng:       eng,
		cfg:       cfg,
		serial:    newUpdater(rand.New(pcg), soc),
		serialPCG: pcg,
		known:     make(map[graph.NodeID]bool),
		srcMu:     stripes.NewMutexSet(sourceStripes),
		segMu:     stripes.NewMutexSet(segmentStripes),
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
	// same counter stripe and source lock, so each worker's cache lines
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
			w := newUpdater(rand.New(rand.NewPCG(m.cfg.Seed, 0x9a6e0000+uint64(wk))), m.soc)
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
	lk := m.srcMu.Of(uint64(u))
	lk.Lock()
	d, _ := m.soc.AddEdge(u, v) // u's new out-degree rides the write's reply
	// Repair walks sampled before this edge existed, then seed new
	// endpoints: freshly seeded walks already sample the new edge, so
	// rerouting them too would over-weight it.
	if d == 1 {
		m.revive(u, v, w)
	} else {
		m.reroute(u, v, d, w)
	}
	lk.Unlock()
	m.ensureNode(u, w)
	m.ensureNode(v, w)
	m.maybeCompact()
}

// reroute repairs stored walks after u's out-degree rose to d >= 2: every
// stored outgoing step from u independently switches to the new edge with
// probability 1/d, and a switched segment keeps its prefix, steps to v, and
// continues with a fresh geometric tail.
//
// The skip coin flips against the stripe-consistent candidate counter; on
// heads the first-switch index is pre-sampled (truncated geometric) and the
// affected segments are frozen under SegmentID stripe locks before the scan.
// Serialized, counter and frozen scan agree exactly. Under parallel
// arrivals, a cross-stripe reroute can shift the candidate count between the
// counter read and the freeze; the scan then retries against the frozen
// enumeration, so a non-skipped arrival still always performs work
// (SlowNoops == 0) and an emptied candidate set downgrades to EmptySkips.
func (m *Maintainer) reroute(u, v graph.NodeID, d int, w *updater) {
	k := m.walks.Candidates(u)
	// <= 0: under parallel arrivals a cross-stripe mutation mid-index can
	// transiently read the counter pair as negative; classify as empty.
	if k <= 0 {
		m.cnt.emptySkips.Add(1)
		return
	}
	inv := 1.0 / float64(d)
	// first is the global index (over the fixed enumeration of all k
	// candidate steps) of the first switch, pre-sampled when the fast path's
	// skip coin came up heads; -1 means flip every candidate unconditionally.
	first := int64(-1)
	if !m.cfg.DisableFastPath {
		if w.rng.Float64() < math.Pow(1-inv, float64(k)) {
			m.cnt.fastSkips.Add(1)
			return
		}
		first = stats.TruncatedGeometric(w.rng, inv, k)
	}
	ids, hits, held := m.freeze(u, w)
	defer m.segMu.UnlockSet(held)
	defer m.flushMuts(w)
	for {
		var rerouted, seen int64
		if m.cfg.LegacyScan {
			rerouted, seen = m.rerouteScan(ids, u, v, inv, first, w)
		} else {
			rerouted, seen = m.rerouteScanIndexed(hits, v, inv, first, w)
		}
		switch {
		case rerouted > 0:
			m.cnt.slowPaths.Add(1)
			m.cnt.rerouted.Add(rerouted)
			return
		case first < 0:
			m.cnt.slowPaths.Add(1)
			m.cnt.slowNoops.Add(1)
			return
		case seen == 0:
			m.cnt.emptySkips.Add(1)
			return
		}
		first = stats.TruncatedGeometric(w.rng, inv, seen)
	}
}

// freeze prepares one repair phase's enumeration over u's stored visits: it
// reads the candidate source (the pending-position index by default, the
// full visitor set with LegacyScan), locks the involved segments under the
// SegmentID stripes, and — on the parallel path — re-reads the index under
// those locks so every hit position is exact, dropping hits of segments
// another worker rerouted into u after the probe (they are simply not part
// of this arrival's frozen enumeration, exactly like a segment missing from
// the pre-index frozen visitor set). Exactly one of ids/hits is non-nil.
func (m *Maintainer) freeze(u graph.NodeID, w *updater) (ids []walkstore.SegmentID, hits []walkstore.PosHit, held []int) {
	if m.cfg.LegacyScan {
		ids = sortedVisitors(m.walks, u)
		return ids, nil, w.lockSegments(m.segMu, ids)
	}
	w.hits = m.walks.AppendPendingPositions(w.hits[:0], u, walkstore.Unsided)
	w.segs = walkstore.DistinctSegments(w.segs, w.hits)
	held = w.lockSegments(m.segMu, w.segs)
	if m.cfg.UpdateWorkers > 1 {
		// Another worker may have mutated a probed segment between the probe
		// and the freeze; re-read now that the segments cannot move.
		w.hits = m.walks.AppendPendingPositions(w.hits[:0], u, walkstore.Unsided)
		w.hits = walkstore.KeepSegments(w.hits, w.segs)
	}
	// Bulk-fetch the frozen segments' paths under one segment-lock
	// acquisition; the scans walk them via a cursor over w.segs.
	w.paths = m.walks.AppendPaths(w.paths, w.segs)
	return nil, w.hits, held
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

// rerouteScan runs one coin-flip pass over the frozen segments, returning
// the number of reroutes performed and candidates enumerated.
func (m *Maintainer) rerouteScan(ids []walkstore.SegmentID, u, v graph.NodeID, inv float64, first int64, w *updater) (rerouted, seen int64) {
	idx := int64(0)
	for _, id := range ids {
		p := m.walks.Path(id) // stable: ReplaceTail relocates, never mutates
		pos := -1
		for i := 0; i < len(p)-1 && pos < 0; i++ {
			if p[i] != u {
				continue
			}
			if stats.FirstSuccessHit(w.rng, first, idx, inv) {
				pos = i
			}
			idx++
		}
		if pos < 0 {
			continue
		}
		// The segment's remaining candidates are superseded by the reroute,
		// but they still occupy slots in the enumeration `first` was drawn
		// over.
		for i := pos + 1; i < len(p)-1; i++ {
			if p[i] == u {
				idx++
			}
		}
		m.redirect(id, pos+1, v, w)
		rerouted++
	}
	return rerouted, idx
}

// rerouteScanIndexed runs one coin-flip pass over the frozen pending-position
// hits of the arrival's source. Hits arrive sorted by (segment, position) —
// the same enumeration order the legacy full-path scan produces — so the
// pre-sampled first-switch index means the same candidate under either scan.
// Only the non-terminal hits are candidates; a segment's hits after its own
// reroute this pass are superseded but keep their enumeration slots.
func (m *Maintainer) rerouteScanIndexed(hits []walkstore.PosHit, v graph.NodeID, inv float64, first int64, w *updater) (rerouted, seen int64) {
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
				continue // terminal visit: no outgoing step to capture
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
		m.redirect(id, pos+1, v, w)
		rerouted++
	}
	return rerouted, idx
}

// revive repairs stored walks after u gained its very first out-edge. While
// u was dangling every walk reaching it died there, so all stored visits to
// u are terminal; each such walk now continues with probability 1-eps,
// necessarily through the new (only) edge. Same freeze-and-retry scheme as
// reroute.
func (m *Maintainer) revive(u, v graph.NodeID, w *updater) {
	t := m.walks.Terminals(u)
	if t <= 0 {
		m.cnt.emptySkips.Add(1)
		return
	}
	eps := m.cfg.Eps
	first := int64(-1)
	if !m.cfg.DisableFastPath {
		if w.rng.Float64() < math.Pow(eps, float64(t)) {
			m.cnt.fastSkips.Add(1)
			return
		}
		first = stats.TruncatedGeometric(w.rng, 1-eps, t)
	}
	ids, hits, held := m.freeze(u, w)
	defer m.segMu.UnlockSet(held)
	defer m.flushMuts(w)
	for {
		var revived, seen int64
		if m.cfg.LegacyScan {
			revived, seen = m.reviveScan(ids, u, v, eps, first, w)
		} else {
			revived, seen = m.reviveScanIndexed(hits, v, eps, first, w)
		}
		switch {
		case revived > 0:
			m.cnt.slowPaths.Add(1)
			m.cnt.revived.Add(revived)
			return
		case first < 0:
			m.cnt.slowPaths.Add(1)
			m.cnt.slowNoops.Add(1)
			return
		case seen == 0:
			m.cnt.emptySkips.Add(1)
			return
		}
		first = stats.TruncatedGeometric(w.rng, 1-eps, seen)
	}
}

// reviveScan runs one continuation pass over the frozen segments, returning
// the number of revivals performed and terminals enumerated.
func (m *Maintainer) reviveScan(ids []walkstore.SegmentID, u, v graph.NodeID, eps float64, first int64, w *updater) (revived, seen int64) {
	idx := int64(0)
	for _, id := range ids {
		p := m.walks.Path(id)
		if p[len(p)-1] != u {
			continue // not a terminal visit; impossible while u was dangling
		}
		cont := stats.FirstSuccessHit(w.rng, first, idx, 1-eps)
		idx++
		if !cont {
			continue
		}
		m.redirect(id, len(p), v, w)
		revived++
	}
	return revived, idx
}

// reviveScanIndexed is reviveScan over frozen pending-position hits: the
// terminal hit of each segment (position == last path index) is the revival
// candidate, enumerated in the same ascending-segment order as the legacy
// visitor scan.
func (m *Maintainer) reviveScanIndexed(hits []walkstore.PosHit, v graph.NodeID, eps float64, first int64, w *updater) (revived, seen int64) {
	idx := int64(0)
	g := 0
	for i := 0; i < len(hits); {
		id := hits[i].Seg
		j := i
		for j < len(hits) && hits[j].Seg == id {
			j++
		}
		p := groupPath(w, &g, id)
		for _, h := range hits[i:j] {
			if int(h.Pos) != len(p)-1 {
				continue // not a terminal visit; impossible while u was dangling
			}
			cont := stats.FirstSuccessHit(w.rng, first, idx, 1-eps)
			idx++
			if cont {
				m.redirect(id, len(p), v, w)
				revived++
			}
			break // at most one terminal hit per segment
		}
		i = j
	}
	return revived, idx
}

// redirect truncates segment id to keep nodes, steps it to v, and extends it
// with a fresh geometric tail sampled through the social store. Callers hold
// the segment's stripe lock. The tail is always sampled here, inline — only
// the store write is deferred to the phase's flushMuts unless
// UnbatchedWrites — so the RNG sequence is identical on both paths.
func (m *Maintainer) redirect(id walkstore.SegmentID, keep int, v graph.NodeID, w *updater) {
	if m.cfg.UnbatchedWrites {
		w.tail = append(w.tail[:0], v)
		w.tail = walk.AppendContinue(w.nb, v, m.cfg.Eps, w.rng, w.tail)
		removed, added := m.walks.ReplaceTail(id, keep, w.tail)
		m.cnt.stepsOut.Add(int64(removed))
		m.cnt.stepsIn.Add(int64(added))
		return
	}
	start := len(w.tailBuf)
	w.tailBuf = append(w.tailBuf, v)
	w.tailBuf = walk.AppendContinue(w.nb, v, m.cfg.Eps, w.rng, w.tailBuf)
	w.muts = append(w.muts, pendingMut{id: id, keep: keep, start: start, end: len(w.tailBuf)})
}

// truncate cuts segment id down to keep nodes with no replacement tail (the
// deletion path's reverse revival), deferred alongside the phase's redirects.
func (m *Maintainer) truncate(id walkstore.SegmentID, keep int, w *updater) {
	if m.cfg.UnbatchedWrites {
		removed, _ := m.walks.ReplaceTail(id, keep, nil)
		m.cnt.stepsOut.Add(int64(removed))
		return
	}
	w.muts = append(w.muts, pendingMut{id: id, keep: keep})
}

// flushMuts applies every tail mutation the current repair phase deferred
// through one stripe-grouped ReplaceTailBatch pass: one arena relocation
// critical section and one counter-stripe lock acquisition per touched
// stripe, instead of one of each per rerouted segment. Phases register it
// with defer immediately after the UnlockSet defer, so it runs (LIFO) while
// the segment stripe locks are still held; a phase's writes are therefore
// fully visible before the source stripe is released, exactly as on the
// unbatched path.
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
// stripe-epoch, or journal movement), so its placement relative to
// concurrent estimates is unconstrained; callers just must not hold
// segment stripe locks across it (they don't — it runs after the repair).
func (m *Maintainer) maybeCompact() {
	if m.cfg.CompactEvery <= 0 {
		return
	}
	if m.compactTick.Add(1)%int64(m.cfg.CompactEvery) == 0 {
		m.walks.MaybeCompact()
	}
}

// ensureNode seeds R fresh segments for a node first seen mid-stream,
// preserving the invariant that every known node owns R walks. The claim is
// made under knownMu so exactly one arrival seeds a node; the walks
// themselves are sampled outside the lock.
func (m *Maintainer) ensureNode(v graph.NodeID, w *updater) {
	m.knownMu.Lock()
	if m.known[v] {
		m.knownMu.Unlock()
		return
	}
	m.known[v] = true
	m.knownMu.Unlock()
	paths := make([][]graph.NodeID, m.cfg.R)
	for i := range paths {
		seg := walk.PageRank(w.nb, v, m.cfg.Eps, w.rng)
		paths[i] = seg.Path
		m.cnt.stepsIn.Add(int64(len(seg.Path)))
	}
	m.walks.AddBatch(paths)
	m.cnt.seeded.Add(int64(len(paths)))
}

// sortedVisitors returns the segments visiting u in ascending ID order,
// making a fixed-seed serialized run reproducible regardless of the visitor
// set's internal representation — and giving every worker one canonical
// enumeration order to draw first-switch indices over.
func sortedVisitors(walks *walkstore.Store, u graph.NodeID) []walkstore.SegmentID {
	ids := walks.Visitors(u)
	slices.Sort(ids)
	return ids
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
	return m.cnt.snapshot()
}
