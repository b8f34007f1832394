package engine

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"fastppr/internal/graph"
	"fastppr/internal/stripes"
	"fastppr/internal/walk"
	"fastppr/internal/walkstore"
)

// Config parameterizes an Engine.
type Config struct {
	// Eps is the walk reset probability; segment lengths are geometric with
	// mean 1/Eps. Must be in (0, 1].
	Eps float64
	// R is the number of stored segments per node (the paper's R).
	R int
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// Batch is the number of lockstep walkers per worker burst; 0 means 128.
	Batch int
	// Seed seeds the PCG sources. BuildStore derives one source per node
	// chunk (PCG(Seed, chunkIndex)), so the generated walks are identical
	// for any worker count; only segment IDs and store layout depend on
	// scheduling. ApplyEdges derives per-worker sources and is not
	// scheduling-deterministic.
	Seed uint64
	// CompactEvery, when positive, makes ApplyWindow check the arena after
	// every CompactEvery-th streamed arrival (and once more at the end of
	// the stream), compacting when at least a quarter of it is garbage
	// (walkstore.MaybeCompact) — reclaiming what the window's reroutes and
	// expiries leave behind without repeatedly copying a mostly-live arena.
	// Compaction changes no logical state, so fixed-seed window runs are
	// bitwise identical with it on or off.
	CompactEvery int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Batch <= 0 {
		c.Batch = 128
	}
	if c.R <= 0 {
		c.R = 1
	}
	return c
}

// updateStripes is the number of per-segment locks serializing concurrent
// reroutes of the same segment during ApplyEdges.
const updateStripes = 512

// Engine generates and maintains walk segments over a graph/store pair.
// Methods are safe for concurrent use, though BuildStore is normally called
// once.
type Engine struct {
	g     *graph.Graph
	store *walkstore.Store
	cfg   Config
	segMu *stripes.MutexSet
}

// New returns an engine over g and store.
func New(g *graph.Graph, store *walkstore.Store, cfg Config) *Engine {
	if cfg.Eps <= 0 || cfg.Eps > 1 {
		panic("engine: Eps must be in (0, 1]")
	}
	return &Engine{g: g, store: store, cfg: cfg.withDefaults(), segMu: stripes.NewMutexSet(updateStripes)}
}

// Store returns the engine's walk store.
func (e *Engine) Store() *walkstore.Store { return e.store }

// Graph returns the engine's graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// BuildStore generates cfg.R segments for every node in nodes and stores
// them, using the worker pool. It returns the total number of walk steps
// taken (stored path nodes). Nodes are claimed in fixed-size chunks via an
// atomic cursor, so the work balances even when segment lengths vary; each
// chunk walks with its own PCG(Seed, chunkIndex) source, so the generated
// paths do not depend on which worker claims which chunk.
func (e *Engine) BuildStore(nodes []graph.NodeID) int64 {
	cfg := e.cfg
	const chunk = 256
	var cursor, steps atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := newBurstGen(e.g, cfg.Batch, cfg.Eps)
			var local int64
			for {
				lo := int(cursor.Add(chunk)) - chunk
				if lo >= len(nodes) {
					break
				}
				hi := min(lo+chunk, len(nodes))
				rng := rand.New(rand.NewPCG(cfg.Seed, uint64(lo/chunk)))
				local += gen.run(e.store, nodes[lo:hi], cfg.R, rng)
			}
			steps.Add(local)
		}()
	}
	wg.Wait()
	return steps.Load()
}

// burstGen holds one worker's reusable lockstep-walk state.
type burstGen struct {
	g       *graph.Graph
	batcher *graph.Batcher
	eps     float64
	batch   int
	// Parallel arrays over alive walkers, compacted by swap-remove.
	cur  []graph.NodeID
	next []graph.NodeID
	ok   []bool
	slot []int // alive walker -> path buffer index
	// One reusable path buffer per walker slot; flushed via AddBatch.
	paths [][]graph.NodeID
}

func newBurstGen(g *graph.Graph, batch int, eps float64) *burstGen {
	return &burstGen{
		g:       g,
		batcher: g.NewBatcher(),
		eps:     eps,
		batch:   batch,
		cur:     make([]graph.NodeID, 0, batch),
		next:    make([]graph.NodeID, batch),
		ok:      make([]bool, batch),
		slot:    make([]int, 0, batch),
		paths:   make([][]graph.NodeID, batch),
	}
}

// run generates r segments for every source in sources, flushing each burst
// into store via AddBatch. It returns the number of stored steps.
func (b *burstGen) run(store *walkstore.Store, sources []graph.NodeID, r int, rng *rand.Rand) int64 {
	var steps int64
	total := len(sources) * r
	emitted := 0
	for emitted < total {
		n := min(b.batch, total-emitted)
		// Seed the burst: walker i starts at sources[(emitted+i)/r].
		b.cur = b.cur[:n]
		b.slot = b.slot[:n]
		for i := 0; i < n; i++ {
			src := sources[(emitted+i)/r]
			b.cur[i] = src
			b.slot[i] = i
			b.paths[i] = append(b.paths[i][:0], src)
		}
		emitted += n
		// Lockstep rounds until every walker in the burst has reset.
		for alive := n; alive > 0; {
			// Reset phase: geometric termination before each step.
			for i := 0; i < alive; {
				if rng.Float64() < b.eps {
					alive = b.retire(i, alive)
					continue
				}
				i++
			}
			if alive == 0 {
				break
			}
			// Step phase: one shard-grouped sampling call for the survivors.
			b.batcher.RandomOutNeighbors(b.cur[:alive], b.next[:alive], b.ok[:alive], rng)
			for i := 0; i < alive; {
				if !b.ok[i] { // dangling node ends the segment
					alive = b.retire(i, alive)
					continue
				}
				b.cur[i] = b.next[i]
				b.paths[b.slot[i]] = append(b.paths[b.slot[i]], b.next[i])
				i++
			}
		}
		store.AddBatch(b.paths[:n])
		for i := 0; i < n; i++ {
			steps += int64(len(b.paths[i]))
		}
	}
	return steps
}

// retire swap-removes walker i from the alive prefix and returns the new
// alive count. Its finished path stays in its slot for the burst flush.
func (b *burstGen) retire(i, alive int) int {
	alive--
	b.cur[i] = b.cur[alive]
	b.slot[i] = b.slot[alive]
	b.next[i] = b.next[alive]
	b.ok[i] = b.ok[alive]
	return alive
}

// UpdateStats aggregates the work done by an ApplyEdges run.
type UpdateStats struct {
	Edges     int   // edge arrivals applied
	Rerouted  int64 // segments whose tail was regenerated
	StepsIn   int64 // visits added by reroutes
	StepsOut  int64 // visits removed by reroutes
	Candidate int64 // segment visits examined (the paper's W(u) work bound)
}

// updState is one ApplyEdges worker's reusable buffers: regenerated tail,
// stripe-lock keys, and the pending-position probe/freeze scratch.
type updState struct {
	tail  []graph.NodeID
	keys  []uint64
	idx   []int
	hits  []walkstore.PosHit
	segs  []walkstore.SegmentID
	paths [][]graph.NodeID

	// Deferred-write state: the repair loops sample fresh tails into
	// tailBuf inline (preserving the exact RNG consumption order) and
	// record a pendingMut each; flushMuts applies one arrival's mutations
	// through one stripe-grouped ReplaceTailBatch pass.
	tailBuf []graph.NodeID
	muts    []pendingMut
	tms     []walkstore.TailMutation
}

// pendingMut is one deferred ReplaceTail; start == end records a pure
// truncation (the deletion path's reverse revival).
type pendingMut struct {
	id         walkstore.SegmentID
	keep       int
	start, end int // st.tailBuf[start:end] is the fresh tail
}

// flushMuts applies the deferred tail mutations through one stripe-grouped
// ReplaceTailBatch pass, crediting removed/added visits to the caller's
// stats. Registered with defer after the UnlockSet defer, so it runs (LIFO)
// while the segment stripe locks are still held.
func (e *Engine) flushMuts(st *updState, stepsOut, stepsIn *int64) {
	// The phase's scans are over. Its frozen paths alias the arena, so they
	// are dropped rather than left in scratch capacity, where a later and
	// shorter freeze would not overwrite them and they would keep an arena
	// that Compact has since replaced reachable.
	clear(st.paths)
	st.paths = st.paths[:0]
	if len(st.muts) == 0 {
		return
	}
	for _, mu := range st.muts {
		var tail []graph.NodeID
		if mu.end > mu.start {
			tail = st.tailBuf[mu.start:mu.end:mu.end]
		}
		st.tms = append(st.tms, walkstore.TailMutation{ID: mu.id, Keep: mu.keep, NewTail: tail})
	}
	removed, added := e.store.ReplaceTailBatch(st.tms)
	// Likewise the staged tails, which alias a tailBuf that append may by
	// now have outgrown.
	clear(st.tms)
	st.tms = st.tms[:0]
	*stepsOut += int64(removed)
	*stepsIn += int64(added)
	st.muts = st.muts[:0]
	st.tailBuf = st.tailBuf[:0]
}

// ApplyEdges replays edge arrivals through the paper's update rule using the
// worker pool: for each arriving edge (u, v), after inserting it the new
// out-degree of u is d, and every stored walk step leaving u is redirected
// through v with probability 1/d; a redirected segment keeps its prefix up
// to that visit, steps to v, and continues with a fresh geometric walk.
// An edge that takes u from dangling to degree 1 instead revives the walks
// that died at u: each continues through the new edge with probability
// 1-eps, restoring the geometric law. Distinct edges proceed in parallel;
// reroutes of the same segment are serialized by SegmentID stripe locks.
//
// Caveat: when two goroutines insert the *first two* edges of the same
// source concurrently, both may observe d=2 and skip the dangling revival.
// Arrival streams are modeled after real social traffic where repeat edges
// from one brand-new source inside one batch are rare; a strict maintainer
// can serialize per-source if it needs exactness there.
func (e *Engine) ApplyEdges(edges []graph.Edge, seed uint64) UpdateStats {
	cfg := e.cfg
	var cursor atomic.Int64
	var stats UpdateStats
	var statsMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(worker)))
			var local UpdateStats
			var st updState
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(edges) {
					break
				}
				ed := edges[i]
				e.g.AddEdge(ed.From, ed.To)
				local.Edges++
				e.applyOne(ed, rng, &st, &local)
			}
			statsMu.Lock()
			stats.Edges += local.Edges
			stats.Rerouted += local.Rerouted
			stats.StepsIn += local.StepsIn
			stats.StepsOut += local.StepsOut
			stats.Candidate += local.Candidate
			statsMu.Unlock()
		}(w)
	}
	wg.Wait()
	return stats
}

// applyOne reroutes the stored segments affected by one inserted edge,
// consuming the store's pending-position index: probe the visit positions at
// u, freeze the hit segments under their SegmentID stripes, re-read the
// index so every position is exact (another worker may have rerouted a
// probed segment in between), then flip coins only at the stored steps the
// new edge can actually capture instead of walking every visitor's path.
func (e *Engine) applyOne(ed graph.Edge, rng *rand.Rand, st *updState, stats *UpdateStats) {
	u, v := ed.From, ed.To
	d := e.g.OutDegree(u)
	if d == 0 {
		return
	}
	inv := 1.0 / float64(d)
	// firstEdge: this arrival took u from dangling to degree 1. Every stored
	// walk that visits u then ended there (a dangling node terminates every
	// visit), so instead of rerouting mid-path steps we must revive the
	// terminal visit: a fresh walk arriving at u now continues with
	// probability 1-eps, and its only possible step is the new edge.
	firstEdge := d == 1
	st.hits = e.store.AppendPendingPositions(st.hits[:0], u, walkstore.Unsided)
	if len(st.hits) == 0 {
		return
	}
	st.segs = walkstore.DistinctSegments(st.segs, st.hits)
	st.keys = st.keys[:0]
	for _, id := range st.segs {
		st.keys = append(st.keys, uint64(id))
	}
	st.idx = e.segMu.LockKeys(st.keys, st.idx)
	defer e.segMu.UnlockSet(st.idx)
	defer e.flushMuts(st, &stats.StepsOut, &stats.StepsIn)
	if e.cfg.Workers > 1 {
		// Another worker may have mutated a probed segment between the probe
		// and the freeze; re-read now that the segments cannot move.
		st.hits = e.store.AppendPendingPositions(st.hits[:0], u, walkstore.Unsided)
		st.hits = walkstore.KeepSegments(st.hits, st.segs)
	}
	st.paths = e.store.AppendPaths(st.paths, st.segs)
	g := 0
	for i := 0; i < len(st.hits); {
		id := st.hits[i].Seg
		j := i
		for j < len(st.hits) && st.hits[j].Seg == id {
			j++
		}
		group := st.hits[i:j]
		i = j
		for st.segs[g] != id {
			g++
		}
		path := st.paths[g]
		reroute := -1
		for _, h := range group {
			// Only non-terminal visits take an outgoing step that the new
			// edge can capture.
			if int(h.Pos) >= len(path)-1 {
				continue
			}
			stats.Candidate++
			if rng.Float64() < inv {
				reroute = int(h.Pos)
				break
			}
		}
		if reroute < 0 && firstEdge && int(group[len(group)-1].Pos) == len(path)-1 {
			stats.Candidate++
			if rng.Float64() >= e.cfg.Eps {
				reroute = len(path) - 1
			}
		}
		if reroute < 0 {
			continue
		}
		start := len(st.tailBuf)
		st.tailBuf = append(st.tailBuf, v)
		st.tailBuf = walk.AppendContinue(e.g, v, e.cfg.Eps, rng, st.tailBuf)
		st.muts = append(st.muts, pendingMut{id: id, keep: reroute + 1, start: start, end: len(st.tailBuf)})
		stats.Rerouted++
	}
}
