package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"fastppr/internal/engine"
	"fastppr/internal/graph"
	"fastppr/internal/stripes"
	"fastppr/internal/topk"
	"fastppr/internal/walk"
	"fastppr/internal/walkstore"
)

// Probes time the layers the pipeline never calls directly. They run at the
// end of a traced run, after every correctness gate, on the workload's own
// live state and on the endpoints of its own probe stream, so a layer's
// number reflects the degree and bucket distribution that workload produced.
// Each probe loops its layer's public function enough times for the total to
// dwarf the two clock reads around it.

const probeOps = 200_000 // most calls one probe loop makes; sizes.ProbeMillis caps its time

// hubThreshold mirrors walkstore's private bucket-representation switch: a
// pending-position bucket past this many entries is served from the hub
// structure instead of the sorted list. The probes time both sides of it.
const hubThreshold = 1024

type prober struct {
	s      *system
	sz     sizes
	rng    *rand.Rand
	budget time.Duration // most time one probe loop takes
	tr     *tracer
	m      map[string]float64
	edges  []graph.Edge   // the probe stream's arrivals
	ends   []graph.NodeID // their endpoints: from, to, from, to, ...
}

// perOp calls op(0), op(1), ... under a span until maxOps calls or the probe
// budget is spent, whichever is first, and returns nanoseconds per call and
// the number of calls. The budget keeps a probe whose single call is slow
// (a hub bucket read is milliseconds) from stretching the traced run.
func (p *prober) perOp(spanName string, maxOps int, op func(i int)) (ns float64, ops int) {
	sp := p.tr.begin(spanName)
	t0 := time.Now()
	for ops < maxOps && (ops%64 != 0 || time.Since(t0) < p.budget) {
		op(ops)
		ops++
	}
	el := time.Since(t0)
	p.tr.end(sp)
	return ratio(float64(el.Nanoseconds()), float64(ops)), ops
}

func (p *prober) graph() {
	g := p.s.g.Clone()
	reps := max(1, probeOps/2/len(p.edges))
	var add, remove time.Duration
	sp := p.tr.begin("probe.graph.add_remove")
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for _, e := range p.edges {
			g.AddEdge(e.From, e.To)
		}
		t1 := time.Now()
		for _, e := range p.edges {
			g.RemoveEdge(e.From, e.To)
		}
		add, remove = add+t1.Sub(t0), remove+time.Since(t1)
	}
	p.tr.end(sp)
	ops := float64(reps * len(p.edges))
	p.m["graph.add_edge_ns"] = float64(add.Nanoseconds()) / ops
	p.m["graph.remove_edge_ns"] = float64(remove.Nanoseconds()) / ops

	p.m["graph.random_out_ns"], _ = p.perOp("probe.graph.random_out", probeOps, func(i int) {
		g.RandomOutNeighbor(p.ends[i%len(p.ends)], p.rng)
	})

	const burst = 128 // engine's lockstep walker count per worker
	b := g.NewBatcher()
	cur, next, ok := make([]graph.NodeID, burst), make([]graph.NodeID, burst), make([]bool, burst)
	ns, _ := p.perOp("probe.graph.batcher", probeOps/burst, func(i int) {
		for j := range cur {
			cur[j] = p.ends[(i*burst+j)%len(p.ends)]
		}
		b.RandomOutNeighbors(cur, next, ok, p.rng)
	})
	p.m["graph.batcher_ns_per_sample"] = ns / burst
}

func (p *prober) stripes() {
	// 256 stripes: the width of both maintainers' endpoint lock sets.
	ms := stripes.NewMutexSet(256)
	keys := make([]uint64, len(p.ends))
	for i, v := range p.ends {
		keys[i] = uint64(v)
	}
	pair := func(i int) {
		k := (2 * i) % (len(keys) - 1)
		a, b := ms.LockPair(keys[k], keys[k+1])
		ms.UnlockPair(a, b)
	}
	p.m["stripes.lock_pair_ns"], _ = p.perOp("probe.stripes.lock_pair", probeOps, pair)
	// Two goroutines pair-locking the same key sequence half a stream apart:
	// what UpdateWorkers=2 and a writer beside a querier pay.
	sp := p.tr.begin("probe.stripes.lock_pair_contended")
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < probeOps; i++ {
			pair(i + len(keys)/4)
		}
	}()
	for i := 0; i < probeOps; i++ {
		pair(i)
	}
	wg.Wait()
	p.m["stripes.lock_pair_contended_ns"] = float64(time.Since(t0).Nanoseconds()) / probeOps
	p.tr.end(sp)
	const set = 8 // about the segment set one repair phase freezes
	var buf []int
	p.m["stripes.lock_keys_ns"], _ = p.perOp("probe.stripes.lock_keys", probeOps/set, func(i int) {
		k := (i * set) % (len(keys) - set)
		buf = ms.LockKeys(keys[k:k+set], buf)
		ms.UnlockSet(buf)
	})
}

func (p *prober) walk() {
	var buf []graph.NodeID
	steps := 0
	ns, ops := p.perOp("probe.walk.append_continue", probeOps/4, func(i int) {
		buf = walk.AppendContinue(p.s.g, p.ends[i%len(p.ends)], p.sz.Eps, p.rng, buf[:0])
		steps += len(buf) + 1 // the terminating coin or dead end is a step's work too
	})
	p.m["walk.append_continue_ns_per_step"] = ns * float64(ops) / float64(steps)
	steps = 0
	ns, ops = p.perOp("probe.walk.append_continue_salsa", probeOps/4, func(i int) {
		// Even entries of ends are sources (forward step pending), odd
		// entries targets (backward step pending), as in a repair.
		buf = walk.AppendContinueSalsa(p.s.g, p.ends[i%len(p.ends)], walk.Direction(i%2), p.sz.Eps, p.rng, buf[:0])
		steps += len(buf) + 1
	})
	p.m["walk.append_continue_salsa_ns_per_step"] = ns * float64(ops) / float64(steps)
}

// indexReads times AppendPendingPositions on buckets either side of
// hubThreshold. A side with no such bucket among the endpoints reads 0.
func (p *prober) indexReads() {
	type key struct {
		v   graph.NodeID
		dir walkstore.Side
	}
	store := p.s.store()
	dirs := []walkstore.Side{walkstore.Unsided}
	if p.s.sa != nil {
		dirs = []walkstore.Side{walkstore.SideForward, walkstore.SideBackward}
	}
	var list, hub []key
	seen := map[key]bool{}
	for _, v := range p.ends {
		for _, d := range dirs {
			k := key{v, d}
			if seen[k] {
				continue
			}
			seen[k] = true
			switch n := len(store.PendingPositions(v, d)); {
			case n > hubThreshold:
				hub = append(hub, k)
			case n > 0:
				list = append(list, k)
			}
		}
	}
	var dst []walkstore.PosHit
	time1 := func(name string, ks []key) float64 {
		if len(ks) == 0 {
			return 0
		}
		ns, _ := p.perOp(name, probeOps, func(i int) {
			k := ks[i%len(ks)]
			dst = store.AppendPendingPositions(dst, k.v, k.dir)
		})
		return ns
	}
	p.m["walkstore.probe_list_ns"] = time1("probe.walkstore.probe_list", list)
	p.m["walkstore.probe_hub_ns"] = time1("probe.walkstore.probe_hub", hub)
}

// capture is a walkstore.MutationLog that keeps the mutation sequence of the
// probe stream, each record tagged with the event that caused it.
type capture struct {
	event int
	recs  []mutation
}

type mutation struct {
	kind  byte // 'a'dd, 't'ail, 'r'emove
	event int
	id    walkstore.SegmentID
	side  walkstore.Side
	keep  int
	path  []graph.NodeID
}

func (c *capture) LogAdd(id walkstore.SegmentID, side walkstore.Side, path []graph.NodeID) {
	c.recs = append(c.recs, mutation{kind: 'a', event: c.event, id: id, side: side, path: path})
}
func (c *capture) LogReplaceTail(id walkstore.SegmentID, keep int, tail []graph.NodeID) {
	c.recs = append(c.recs, mutation{kind: 't', event: c.event, id: id, keep: keep, path: tail})
}
func (c *capture) LogRemove(id walkstore.SegmentID) {
	c.recs = append(c.recs, mutation{kind: 'r', event: c.event, id: id})
}

// replayOther applies a captured add or remove, untimed.
func replayOther(st *walkstore.Store, r mutation) error {
	switch r.kind {
	case 'a':
		id := st.AddSided(r.path, r.side)
		if id != r.id {
			return fmt.Errorf("probe replay: add got segment %d, log says %d", id, r.id)
		}
	case 'r':
		st.Remove(r.id)
	}
	return nil
}

// storeWrites replays the probe stream's real mutation sequence onto copies
// of the store as it stood before that stream: once through ReplaceTail, one
// call per record, and once through ReplaceTailBatch, one call per event.
// The first copy must end up dumping equal to the live store, which proves
// the replayed sequence is the one the maintainer issued.
func (p *prober) storeWrites(probe []graph.Event) error {
	store := p.s.store()
	sp := p.tr.begin("probe.walkstore.dump")
	t0 := time.Now()
	before, err := store.Dump()
	p.m["walkstore.dump_s"] = time.Since(t0).Seconds()
	p.tr.end(sp)
	if err != nil {
		return fmt.Errorf("probe dump: %w", err)
	}

	log := &capture{}
	store.SetMutationLog(log)
	sp = p.tr.begin("probe.capture")
	for i, ev := range probe {
		log.event = i
		p.s.applyOne(ev)
	}
	p.tr.end(sp)
	store.SetMutationLog(nil)

	var slots, tails int
	for _, r := range log.recs {
		switch r.kind {
		case 'a':
			slots += len(r.path)
		case 't':
			slots += r.keep + len(r.path)
			tails++
		}
	}
	p.m["walkstore.slots_written_per_update"] = ratio(float64(slots), float64(len(probe)))

	one, err := walkstore.Restore(before)
	if err != nil {
		return fmt.Errorf("probe restore: %w", err)
	}
	var el time.Duration
	sp = p.tr.begin("probe.walkstore.replace_tail")
	for _, r := range log.recs {
		if r.kind != 't' {
			if err := replayOther(one, r); err != nil {
				return err
			}
			continue
		}
		t0 := time.Now()
		one.ReplaceTail(r.id, r.keep, r.path)
		el += time.Since(t0)
	}
	p.tr.end(sp)
	p.m["walkstore.replace_tail_ns"] = ratio(float64(el.Nanoseconds()), float64(tails))
	after, err := store.Dump()
	if err != nil {
		return fmt.Errorf("probe dump: %w", err)
	}
	replayed, err := one.Dump()
	if err != nil {
		return fmt.Errorf("probe dump: %w", err)
	}
	if !sameDump(after, replayed) {
		return fmt.Errorf("probe replay: replayed store differs from the live one")
	}

	batched, err := walkstore.Restore(before)
	if err != nil {
		return fmt.Errorf("probe restore: %w", err)
	}
	el = 0
	var batch []walkstore.TailMutation
	flush := func() {
		if len(batch) == 0 {
			return
		}
		t0 := time.Now()
		batched.ReplaceTailBatch(batch)
		el += time.Since(t0)
		batch = batch[:0]
	}
	sp = p.tr.begin("probe.walkstore.replace_tail_batch")
	for i, r := range log.recs {
		if i > 0 && r.event != log.recs[i-1].event {
			flush()
		}
		if r.kind != 't' {
			flush()
			if err := replayOther(batched, r); err != nil {
				return err
			}
			continue
		}
		batch = append(batch, walkstore.TailMutation{ID: r.id, Keep: r.keep, NewTail: r.path})
	}
	flush()
	p.tr.end(sp)
	p.m["walkstore.replace_tail_batch_ns_per_mut"] = ratio(float64(el.Nanoseconds()), float64(tails))

	// Bulk load: the dumped paths of one side, in the engine's burst size.
	side := walkstore.Unsided
	if p.s.sa != nil {
		side = walkstore.SideForward
	}
	var paths [][]graph.NodeID
	for _, seg := range before.Segs {
		if seg.Live && seg.Side == side && len(paths) < 1<<16 {
			paths = append(paths, seg.Path)
		}
	}
	fresh := walkstore.New()
	ns, _ := p.perOp("probe.walkstore.add_batch", len(paths)/128, func(i int) {
		fresh.AddBatchSided(paths[i*128:(i+1)*128], side)
	})
	p.m["walkstore.add_batch_ns_per_seg"] = ns / 128

	sp = p.tr.begin("probe.walkstore.compact")
	t0 = time.Now()
	store.Compact()
	p.m["walkstore.compact_s"] = time.Since(t0).Seconds()
	p.tr.end(sp)
	return nil
}

// engine times bulk walk generation with one and two workers and the
// sliding-window driver, the only coverage of engine's own repair code.
func (p *prober) engine(seed uint64, windowArrivals int) {
	nodes := p.s.g.Nodes()
	var one *engine.Engine
	for _, w := range []int{1, 2} {
		eng := engine.New(p.s.g.Clone(), walkstore.New(), engine.Config{Eps: p.sz.Eps, R: p.sz.R, Workers: w, Seed: seed})
		sp := p.tr.begin("probe.engine.build")
		t0 := time.Now()
		steps := eng.BuildStore(nodes)
		el := time.Since(t0)
		p.tr.end(sp)
		p.m[fmt.Sprintf("engine.build_steps_per_s_w%d", w)] = ratio(float64(steps), el.Seconds())
		if w == 1 {
			one = eng
		}
	}
	stream := make([]graph.Edge, windowArrivals)
	uniformBatch(stream, len(nodes), p.rng)
	sp := p.tr.begin("probe.engine.window")
	t0 := time.Now()
	ws := one.ApplyWindow(stream, max(1, windowArrivals/4), seed+3)
	el := time.Since(t0)
	p.tr.end(sp)
	p.m["engine.window_edges_per_s"] = ratio(float64(ws.Arrived), el.Seconds())
}

// topk times selection on a real score vector: the maintained global
// estimates on the pagerank workloads, one personalized query's authority
// distribution on the SALSA ones.
func (p *prober) topk(scores map[graph.NodeID]float64) {
	const reps = 200
	ns, _ := p.perOp("probe.topk.topk100", reps, func(int) { topk.TopK(scores, 100) })
	p.m["topk.topk100_us"] = ns / 1e3
	ns, _ = p.perOp("probe.topk.stream_first10", reps, func(int) {
		s := topk.NewStream(scores)
		for k := 0; k < 10; k++ {
			s.Next()
		}
	})
	p.m["topk.stream_first10_us"] = ns / 1e3
}

// runProbes runs every probe against the finished system and writes the
// results into m.
func runProbes(s *system, in *inputs, sz sizes, seed uint64, tr *tracer, m map[string]float64) error {
	p := &prober{s: s, sz: sz, rng: pcg(seed, saltProbeRNG), budget: time.Duration(sz.ProbeMillis) * time.Millisecond, tr: tr, m: m}
	for _, ev := range in.probe {
		if !ev.Del {
			p.edges = append(p.edges, ev.Edge)
			p.ends = append(p.ends, ev.Edge.From, ev.Edge.To)
		}
	}
	sp := tr.begin("probes")
	defer tr.end(sp)
	p.graph()
	p.stripes()
	p.walk()
	p.indexReads()
	var scores map[graph.NodeID]float64
	if s.pr != nil {
		scores = s.pr.ApproxAll()
	} else {
		scores = s.sa.Personalized(p.ends[0]).AuthorityAll()
	}
	p.topk(scores)
	p.engine(seed, sz.WindowArrivals)
	// Last: it applies the probe stream and compacts the live store.
	return p.storeWrites(in.probe)
}
