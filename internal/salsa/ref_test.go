package salsa

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"fastppr/internal/gen"
	"fastppr/internal/graph"
	"fastppr/internal/socialstore"
	"fastppr/internal/stats"
	"fastppr/internal/walk"
	"fastppr/internal/walkstore"
)

// reference is the sided repair rule of docs/DESIGN.md §1, §3 and §10 in its
// plainest executable form: a slice of sided paths indexed by SegmentID,
// scanned in full, in (segment, position) order, for every phase. It reads
// no index and no store counter, batches nothing and holds no lock; each
// mutation is applied the moment its tail is drawn. Started from a
// maintainer's post-Bootstrap Dump, with a private graph replaying the same
// base edges and a PCG seeded like the serialized updater's, it draws the
// same coins in the same order, so a serialized maintainer must match it
// bitwise after every event.
//
// With flipAll the skip coins are off and every candidate flips its own
// coin: the naive law the fast path is distributionally equal to (§3).
type reference struct {
	g       *graph.Graph
	segs    []walkstore.SegmentDump
	known   map[graph.NodeID]bool
	rng     *rand.Rand
	eps     float64
	r       int
	flipAll bool
	cnt     Counters
	// fresh maps a segment the current event's forward phase regrew to its
	// first regrown position; the backward phase leaves those positions be.
	fresh map[int]int
}

// buildGraph returns a graph holding nodes 0..n-1 and the base edges, added
// in order, so two calls give the same row order (DESIGN.md §10).
func buildGraph(n int, base []graph.Edge) *graph.Graph {
	g := nodeGraph(n)
	for _, e := range base {
		g.AddEdge(e.From, e.To)
	}
	return g
}

// newReference copies mt's store, which must be freshly bootstrapped over a
// graph equal to g; g becomes the reference's own graph.
func newReference(t *testing.T, mt *Maintainer, g *graph.Graph, flipAll bool) *reference {
	t.Helper()
	d, err := mt.Store().Dump()
	if err != nil {
		t.Fatal(err)
	}
	known := make(map[graph.NodeID]bool)
	for _, v := range g.Nodes() {
		known[v] = true
	}
	return &reference{
		g: g, segs: d.Segs, known: known,
		rng: rand.New(rand.NewPCG(mt.cfg.Seed, 0x5a15a)),
		eps: mt.cfg.Eps, r: mt.cfg.R, flipAll: flipAll,
		fresh: make(map[int]int),
	}
}

func (r *reference) apply(ev graph.Event) {
	if ev.Del {
		r.remove(ev.Edge.From, ev.Edge.To)
	} else {
		r.arrive(ev.Edge.From, ev.Edge.To)
	}
}

// at returns the candidate test "a stored dir-pending visit of n at i that
// the forward phase did not just regrow, and terminal iff terminal".
func (r *reference) at(n graph.NodeID, dir walkstore.Side, terminal bool) func(id, i int) bool {
	return func(id, i int) bool {
		sd := r.segs[id]
		if !sd.Live || sd.Path[i] != n || sd.Side.PendingAt(i) != dir || (i == len(sd.Path)-1) != terminal {
			return false
		}
		keep, ok := r.fresh[id]
		return !ok || i < keep
	}
}

// arrive runs §2.2's rule on both sides of the bipartite view: stored
// forward steps out of u switch to v with probability 1/d_out, then stored
// backward steps out of v switch to u with probability 1/d_in. A node's
// first edge in a direction revives its walks ended there pending that
// direction instead: forward with probability 1-eps, backward surely (no
// reset coin precedes a backward step).
func (r *reference) arrive(u, v graph.NodeID) {
	r.cnt.Arrivals++
	dout, din := r.g.AddEdge(u, v)
	clear(r.fresh)
	fwd := func(id, pos int) { r.regrow(id, pos+1, v, walk.Backward); r.fresh[id] = pos + 1 }
	if dout == 1 {
		r.cnt.Revived += r.phase(r.at(u, walkstore.SideForward, true), 1-r.eps, r.eps, fwd)
	} else {
		inv := 1.0 / float64(dout)
		r.cnt.Rerouted += r.phase(r.at(u, walkstore.SideForward, false), inv, 1-inv, fwd)
	}
	bwd := func(id, pos int) { r.regrow(id, pos+1, u, walk.Forward) }
	if din == 1 {
		r.cnt.Revived += r.phase(r.at(v, walkstore.SideBackward, true), 1, 0, bwd)
	} else {
		inv := 1.0 / float64(din)
		r.cnt.Rerouted += r.phase(r.at(v, walkstore.SideBackward, false), inv, 1-inv, bwd)
	}
	r.ensureNode(u)
	r.ensureNode(v)
}

// phase is the joint coin law of §3 over every candidate position (cand),
// each captured with probability p (miss == 1-p, passed separately so the
// skip coin's base is the very float the maintainer uses). The skip coin
// (1-p)^K dismisses the phase; otherwise the first capture's index is drawn
// truncated-geometric and only later candidates flip coins. Within a
// segment the first capture wins; its later candidates still count as
// enumeration slots but draw nothing. A certain capture (miss == 0, the
// backward revival) flips no coin at all.
func (r *reference) phase(cand func(id, i int) bool, p, miss float64, capture func(id, pos int)) (captured int64) {
	var k int64
	for id, sd := range r.segs {
		for i := range sd.Path {
			if cand(id, i) {
				k++
			}
		}
	}
	if k == 0 {
		r.cnt.EmptySkips++
		return 0
	}
	first := int64(-1)
	if miss == 0 {
		first = 0
	} else if !r.flipAll {
		if r.rng.Float64() < math.Pow(miss, float64(k)) {
			r.cnt.FastSkips++
			return 0
		}
		first = stats.TruncatedGeometric(r.rng, p, k)
	}
	idx := int64(0)
	for id, sd := range r.segs {
		pos := -1
		for i := range sd.Path {
			if !cand(id, i) {
				continue
			}
			if pos < 0 && (idx == first || idx > first && (miss == 0 || r.rng.Float64() < p)) {
				pos = i
			}
			idx++
		}
		if pos >= 0 {
			capture(id, pos)
			captured++
		}
	}
	r.cnt.SlowPaths++
	if captured == 0 {
		r.cnt.SlowNoops++
	}
	return captured
}

// remove is §10's sided reverse reroute: each stored forward step u -> v,
// then each stored backward step v -> u the forward phase did not regrow,
// used the removed copy with probability 1/c. The first captured step of a
// segment re-steps through a surviving out-edge of u (forward) or in-edge
// of v (backward) and regrows, or truncates the walk when none survives.
func (r *reference) remove(u, v graph.NodeID) {
	r.cnt.Deletions++
	dout, din, left, ok := r.g.RemoveEdge(u, v)
	if !ok {
		r.cnt.DelMisses++
		return
	}
	c := left + 1
	clear(r.fresh)
	r.unroute(r.at(u, walkstore.SideForward, false), v, c, func(id, keep int) bool {
		r.fresh[id] = keep
		if dout == 0 {
			return false
		}
		to, _ := r.g.RandomOutNeighbor(u, r.rng)
		r.regrow(id, keep, to, walk.Backward)
		return true
	})
	r.unroute(r.at(v, walkstore.SideBackward, false), u, c, func(id, keep int) bool {
		if din == 0 {
			return false
		}
		to, _ := r.g.RandomInNeighbor(v, r.rng)
		r.regrow(id, keep, to, walk.Forward)
		return true
	})
}

// unroute captures, per segment, the first candidate step to next that wins
// its 1/c coin (no coin when c == 1) and hands it to resample, truncating
// the walk when resample reports no survivor.
func (r *reference) unroute(cand func(id, i int) bool, next graph.NodeID, c int, resample func(id, keep int) bool) {
	inv := 1.0 / float64(c)
	for id, sd := range r.segs {
		pos := -1
		for i := range sd.Path {
			if pos < 0 && cand(id, i) && sd.Path[i+1] == next && (c == 1 || r.rng.Float64() < inv) {
				pos = i
			}
		}
		switch {
		case pos < 0:
		case resample(id, pos+1):
			r.cnt.DelRerouted++
		default:
			r.replace(id, pos+1, nil)
			r.cnt.DelTruncated++
		}
	}
}

func (r *reference) regrow(id, keep int, to graph.NodeID, next walk.Direction) {
	r.replace(id, keep, walk.AppendContinueSalsa(r.g, to, next, r.eps, r.rng, []graph.NodeID{to}))
}

func (r *reference) replace(id, keep int, tail []graph.NodeID) {
	p := r.segs[id].Path
	r.cnt.StepsOut += int64(len(p) - keep)
	r.cnt.StepsIn += int64(len(tail))
	r.segs[id].Path = append(slices.Clip(p[:keep]), tail...)
}

// ensureNode seeds R forward-first and R backward-first walks, drawn in
// pairs, for a node first seen mid-stream; the forward batch is stored
// first.
func (r *reference) ensureNode(v graph.NodeID) {
	if r.known[v] {
		return
	}
	r.known[v] = true
	var fs, bs []walkstore.SegmentDump
	for i := 0; i < r.r; i++ {
		f := walk.Salsa(r.g, v, walk.Forward, r.eps, r.rng)
		b := walk.Salsa(r.g, v, walk.Backward, r.eps, r.rng)
		fs = append(fs, walkstore.SegmentDump{Live: true, Side: walkstore.SideForward, Path: f.Path})
		bs = append(bs, walkstore.SegmentDump{Live: true, Side: walkstore.SideBackward, Path: b.Path})
		r.cnt.StepsIn += int64(len(f.Path) + len(b.Path))
	}
	r.segs = append(append(r.segs, fs...), bs...)
	r.cnt.Seeded += int64(2 * r.r)
}

// authorities is AuthorityAll over the reference's paths: each node's share
// of the stored visits pending a backward step.
func (r *reference) authorities() map[graph.NodeID]float64 {
	x := make(map[graph.NodeID]float64)
	var total float64
	for _, sd := range r.segs {
		for i, v := range sd.Path {
			if sd.Live && sd.Side.PendingAt(i) == walkstore.SideBackward {
				x[v]++
				total++
			}
		}
	}
	for v := range x {
		x[v] /= total
	}
	return x
}

// diff describes the first difference between mt and the reference — the
// lowest segment ID, then the lowest path position — or returns "".
func (r *reference) diff(t *testing.T, mt *Maintainer) string {
	t.Helper()
	d, err := mt.Store().Dump()
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < max(len(d.Segs), len(r.segs)); id++ {
		if id >= len(d.Segs) || id >= len(r.segs) {
			return fmt.Sprintf("segment %d: maintainer holds %d segments, reference %d", id, len(d.Segs), len(r.segs))
		}
		got, want := d.Segs[id], r.segs[id]
		if got.Live != want.Live || got.Side != want.Side {
			return fmt.Sprintf("segment %d: maintainer live=%v side=%d, reference live=%v side=%d", id, got.Live, got.Side, want.Live, want.Side)
		}
		for pos := 0; pos < max(len(got.Path), len(want.Path)); pos++ {
			if pos >= len(got.Path) || pos >= len(want.Path) || got.Path[pos] != want.Path[pos] {
				return fmt.Sprintf("segment %d position %d: maintainer path %v, reference path %v", id, pos, got.Path, want.Path)
			}
		}
	}
	cnt := mt.Counters()
	cnt.Queries = 0
	if cnt != r.cnt {
		return fmt.Sprintf("counters: maintainer %+v, reference %+v", cnt, r.cnt)
	}
	return ""
}

// refRun is one TestMatchesReference input: a serialized maintainer over
// nodes 0..n-1 plus base, fed events in batches of batch (0 means 1),
// with the arena compacted before event compactAt when it is positive.
type refRun struct {
	name      string
	cfg       Config
	n         int
	base      []graph.Edge
	events    []graph.Event
	batch     int
	compactAt int
}

func describe(ev graph.Event) string {
	if ev.Del {
		return "deletion " + ev.Edge.String()
	}
	return "arrival " + ev.Edge.String()
}

func arrivalsOnly(edges []graph.Edge) []graph.Event {
	evs := make([]graph.Event, len(edges))
	for i, e := range edges {
		evs[i] = graph.Event{Edge: e}
	}
	return evs
}

// run drives the maintainer and the reference through the same events and
// fails at the first batch after which they differ.
func (rr refRun) run(t *testing.T) *Maintainer {
	t.Helper()
	mt := New(socialstore.New(buildGraph(rr.n, rr.base)), rr.cfg)
	mt.Bootstrap()
	ref := newReference(t, mt, buildGraph(rr.n, rr.base), false)
	batch := max(rr.batch, 1)
	for lo := 0; lo < len(rr.events); lo += batch {
		hi := min(lo+batch, len(rr.events))
		if rr.compactAt > 0 && lo <= rr.compactAt && rr.compactAt < hi {
			mt.ApplyEvents(rr.events[lo:rr.compactAt])
			mt.Store().Compact()
			mt.ApplyEvents(rr.events[rr.compactAt:hi])
		} else {
			mt.ApplyEvents(rr.events[lo:hi])
		}
		for _, ev := range rr.events[lo:hi] {
			ref.apply(ev)
		}
		if msg := ref.diff(t, mt); msg != "" {
			where := fmt.Sprintf("event %d (%s)", lo, describe(rr.events[lo]))
			if hi-lo > 1 {
				where = fmt.Sprintf("events %d..%d", lo, hi-1)
			}
			t.Fatalf("%s: first divergence after %s: %s", rr.name, where, msg)
		}
	}
	validateAll(t, mt)
	return mt
}

// TestMatchesReference pins every repair phase of the serialized maintainer
// — probe, freeze, indexed scan, staged tails, one flush per phase — to the
// reference, bitwise, after every batch. The rows are the streams and seeds
// of the equivalence tests the reference replaced.
func TestMatchesReference(t *testing.T) {
	short := testing.Short()
	pick := func(full, s int) int {
		if short {
			return s
		}
		return full
	}

	// Half a power-law graph as the base, a slice of the other half as
	// arrivals (formerly TestIndexedScanMatchesLegacy).
	nA := pick(120, 60)
	rng := rand.New(rand.NewPCG(91, 0))
	stream := gen.RandomPermutationStream(gen.PreferentialAttachment(nA, 4, rng), rng)
	prefix, suffix := gen.SplitStream(stream, 0.5)
	suffix = suffix[:min(len(suffix), pick(500, 200))]

	// Power-law churn on an edgeless node set: both unroute phases and
	// both reverse revivals (formerly TestDeletionLegacyScanBitwise).
	nD := pick(100, 60)
	churn := gen.PowerLawChurnStream(nD, pick(700, 300), 0.8, 0.35, rand.New(rand.NewPCG(92, 0)))

	// Rounds of churn through ApplyEvents, compacted halfway (formerly the
	// churn run of TestBatchedWritesMatchUnbatched).
	rounds, per := pick(6, 3), pick(100, 50)
	crng := rand.New(rand.NewPCG(302, 0))
	var rounded []graph.Event
	for i := 0; i < rounds; i++ {
		rounded = append(rounded, gen.PowerLawChurnStream(60, per, 0.9, 0.35, crng)...)
	}

	// A power-law graph replayed into an empty maintainer: every endpoint is
	// seeded mid-stream.
	srng := rand.New(rand.NewPCG(71, 0))
	seeded := gen.RandomPermutationStream(gen.PreferentialAttachment(pick(120, 60), 4, srng), srng)

	for _, rr := range []refRun{
		{name: "powerlaw-suffix", cfg: Config{Eps: 0.2, R: 6, Workers: 1, Seed: 92}, n: nA, base: prefix, events: arrivalsOnly(suffix)},
		{name: "powerlaw-churn", cfg: Config{Eps: 0.2, R: 5, Workers: 1, Seed: 91}, n: nD, events: churn},
		{name: "churn-rounds", cfg: Config{Eps: 0.2, R: 8, Workers: 1, Seed: 301}, n: 60, events: rounded, batch: per, compactAt: len(rounded) / 2},
		{name: "seeded-mid-stream", cfg: Config{Eps: 0.2, R: 3, Workers: 1, Seed: 72}, events: arrivalsOnly(seeded)},
	} {
		t.Run(rr.name, func(t *testing.T) {
			mt := rr.run(t)
			if c := mt.Counters(); c.Rerouted == 0 || c.Revived == 0 || c.Deletions > 0 && c.DelRerouted+c.DelTruncated == 0 {
				t.Fatalf("stream exercised too little: %+v", c)
			}
		})
	}
}

// FuzzAgainstReference decodes bytes into a small serialized run on at most
// 16 nodes and compares the maintainer with the reference after every
// event. Byte 0 picks R, Eps and the seed; byte 1 the base node count n and
// the number of base edges that follow, one byte each (from<<4 | to). Then
// each event is an op byte and an argument byte: op&3 < 2 adds arg's edge;
// op&3 == 2 deletes a live edge chosen by arg; op&3 == 3 deletes arg's edge,
// present or not (a counted miss when absent), or, with op&4 set, compacts
// the arena. Nodes past n are seeded when an arrival first touches them.
func FuzzAgainstReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := Config{
			Eps:     []float64{0.15, 0.3, 0.5, 0.8}[data[0]>>2&3],
			R:       1 + int(data[0]&3),
			Workers: 1,
			Seed:    uint64(data[0] >> 4),
		}
		n, nb := 1+int(data[1]&15), int(data[1]>>4)
		data = data[2:]
		var base []graph.Edge
		for ; nb > 0 && len(data) > 0; nb-- {
			base = append(base, graph.Edge{From: graph.NodeID(data[0] >> 4), To: graph.NodeID(data[0] & 15)})
			data = data[1:]
		}
		mt := New(socialstore.New(buildGraph(n, base)), cfg)
		mt.Bootstrap()
		ref := newReference(t, mt, buildGraph(n, base), false)
		for i := 0; len(data) >= 2 && i < 48; i, data = i+1, data[2:] {
			op, arg := data[0], data[1]
			ed := graph.Edge{From: graph.NodeID(arg >> 4), To: graph.NodeID(arg & 15)}
			what := "compaction"
			switch {
			case op&3 < 2:
				ev := graph.Event{Edge: ed}
				mt.ApplyEvents([]graph.Event{ev})
				ref.apply(ev)
				what = describe(ev)
			case op&3 == 2 || op&4 == 0:
				if op&3 == 2 {
					edges := ref.g.Edges()
					if len(edges) == 0 {
						continue
					}
					ed = edges[int(arg)%len(edges)]
				}
				ev := graph.Event{Edge: ed, Del: true}
				mt.ApplyEvents([]graph.Event{ev})
				ref.apply(ev)
				what = describe(ev)
			default:
				mt.Store().Compact()
			}
			if msg := ref.diff(t, mt); msg != "" {
				t.Fatalf("first divergence after event %d (%s): %s", i, what, msg)
			}
		}
		validateAll(t, mt)
	})
}
