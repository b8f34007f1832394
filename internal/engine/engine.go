package engine

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"fastppr/internal/graph"
	"fastppr/internal/repair"
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

// Engine generates and maintains walk segments over a graph/store pair.
// Methods are safe for concurrent use, though BuildStore is normally called
// once.
type Engine struct {
	g     *graph.Graph
	store *walkstore.Store
	cfg   Config
	// k freezes, stages and flushes the update paths' repairs under its own
	// SegmentID stripes; the coin loops around it are the engine's.
	k *repair.Kernel
}

// New returns an engine over g and store.
func New(g *graph.Graph, store *walkstore.Store, cfg Config) *Engine {
	if cfg.Eps <= 0 || cfg.Eps > 1 {
		panic("engine: Eps must be in (0, 1]")
	}
	cfg = cfg.withDefaults()
	k := repair.New(store, g, repair.Config{Eps: cfg.Eps, Tail: repair.ResetTail, Workers: cfg.Workers})
	return &Engine{g: g, store: store, cfg: cfg, k: k}
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
	Revivals  int   // arrivals that gave their source its first out-edge and ran the revival
	Rerouted  int64 // segments whose tail was regenerated
	StepsIn   int64 // visits added by reroutes
	StepsOut  int64 // visits removed by reroutes
	Candidate int64 // segment visits examined (the paper's W(u) work bound)
}

// release ends a repair phase through the kernel (flush, then unlock) and
// credits the visits it removed and added.
func (e *Engine) release(w *repair.Worker, stepsOut, stepsIn *int64) {
	removed, added := e.k.Release(w)
	*stepsOut += int64(removed)
	*stepsIn += int64(added)
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
// Each arrival's d is its own insert's reply, so when two goroutines insert
// a source's first two edges, exactly one of them sees d = 1 and revives.
func (e *Engine) ApplyEdges(edges []graph.Edge, seed uint64) UpdateStats {
	cfg := e.cfg
	var cursor atomic.Int64
	var stats UpdateStats
	var statsMu sync.Mutex
	var wg sync.WaitGroup
	for wk := 0; wk < cfg.Workers; wk++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			w := repair.NewWorker(rand.New(rand.NewPCG(seed, uint64(worker))), e.g)
			var local UpdateStats
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(edges) {
					break
				}
				ed := edges[i]
				d, _ := e.g.AddEdge(ed.From, ed.To)
				local.Edges++
				e.applyOne(ed, d, w, &local)
			}
			statsMu.Lock()
			stats.Edges += local.Edges
			stats.Revivals += local.Revivals
			stats.Rerouted += local.Rerouted
			stats.StepsIn += local.StepsIn
			stats.StepsOut += local.StepsOut
			stats.Candidate += local.Candidate
			statsMu.Unlock()
		}(wk)
	}
	wg.Wait()
	return stats
}

// applyOne reroutes the stored segments affected by one inserted edge, given
// u's out-degree d from the insert's reply, over the kernel's freeze of u's
// pending positions (repair.Kernel.Freeze): it flips coins only at the
// stored steps the new edge can actually capture instead of walking every
// visitor's path. Unlike the maintainers' phases it has no skip coin, flips
// every candidate until a capture and revives on a >= eps coin.
func (e *Engine) applyOne(ed graph.Edge, d int, w *repair.Worker, stats *UpdateStats) {
	u, v := ed.From, ed.To
	inv := 1.0 / float64(d)
	// firstEdge: this arrival took u from dangling to degree 1. Every stored
	// walk that visits u then ended there (a dangling node terminates every
	// visit), so instead of rerouting mid-path steps we must revive the
	// terminal visit: a fresh walk arriving at u now continues with
	// probability 1-eps, and its only possible step is the new edge.
	firstEdge := d == 1
	if firstEdge {
		stats.Revivals++
	}
	e.k.Freeze(w, u, walkstore.Unsided)
	defer e.release(w, &stats.StepsOut, &stats.StepsIn)
	rng := w.RNG
	w.Each(func(id walkstore.SegmentID, path []graph.NodeID, group []walkstore.PosHit) {
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
		if reroute >= 0 {
			e.k.Stage(w, id, reroute+1, v, walkstore.Unsided)
			stats.Rerouted++
		}
	})
}
