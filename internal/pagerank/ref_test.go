package pagerank

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

// reference is the repair rule of docs/DESIGN.md §3 and §10 in its plainest
// executable form: a slice of paths indexed by SegmentID, scanned in full,
// in (segment, position) order, for every event. It reads no index and no
// store counter, batches nothing and holds no lock; each mutation is applied
// the moment its tail is drawn. Started from a maintainer's post-Bootstrap
// Dump, with a private graph replaying the same base edges and a PCG seeded
// like the serialized updater's, it draws the same coins in the same order,
// so a serialized maintainer must match it bitwise after every event.
//
// With flipAll the skip coin is off and every candidate flips its own coin:
// the naive law the fast path is distributionally equal to (§3).
type reference struct {
	g       *graph.Graph
	segs    []walkstore.SegmentDump
	known   map[graph.NodeID]bool
	rng     *rand.Rand
	eps     float64
	r       int
	flipAll bool
	cnt     Counters
}

// buildGraph returns a graph holding nodes 0..n-1 and the base edges, added
// in order, so two calls give the same row order (DESIGN.md §10).
func buildGraph(n int, base []graph.Edge) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i))
	}
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
		rng: rand.New(rand.NewPCG(mt.cfg.Seed, 0x9a6e)),
		eps: mt.cfg.Eps, r: mt.cfg.R, flipAll: flipAll,
	}
}

func (r *reference) apply(ev graph.Event) {
	if ev.Del {
		r.remove(ev.Edge.From, ev.Edge.To)
	} else {
		r.arrive(ev.Edge.From, ev.Edge.To)
	}
}

// arrive is §2.2: after u's out-degree rose to d, each stored step out of u
// switches to the new edge with probability 1/d; when d == 1 every walk
// ended at u continues with probability 1-eps. Either way a captured walk
// keeps its prefix through u, steps to v and draws a fresh tail.
func (r *reference) arrive(u, v graph.NodeID) {
	r.cnt.Arrivals++
	d, _ := r.g.AddEdge(u, v)
	if d == 1 {
		r.cnt.Revived += r.phase(func(p []graph.NodeID, i int) bool { return i == len(p)-1 && p[i] == u }, 1-r.eps, r.eps, v)
	} else {
		inv := 1.0 / float64(d)
		r.cnt.Rerouted += r.phase(func(p []graph.NodeID, i int) bool { return i < len(p)-1 && p[i] == u }, inv, 1-inv, v)
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
// enumeration slots but draw nothing.
func (r *reference) phase(cand func(p []graph.NodeID, i int) bool, p, miss float64, to graph.NodeID) (captured int64) {
	var k int64
	for _, sd := range r.segs {
		for i := range sd.Path {
			if sd.Live && cand(sd.Path, i) {
				k++
			}
		}
	}
	if k == 0 {
		r.cnt.EmptySkips++
		return 0
	}
	first := int64(-1)
	if !r.flipAll {
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
			if !sd.Live || !cand(sd.Path, i) {
				continue
			}
			if pos < 0 && (idx == first || idx > first && r.rng.Float64() < p) {
				pos = i
			}
			idx++
		}
		if pos >= 0 {
			r.regrow(id, pos+1, to)
			captured++
		}
	}
	r.cnt.SlowPaths++
	if captured == 0 {
		r.cnt.SlowNoops++
	}
	return captured
}

// remove is §10: each stored step u -> v used the removed copy with
// probability 1/c, c the pre-removal multiplicity; the first captured step
// of a segment re-steps to a uniform surviving out-neighbor and regrows, or
// truncates the walk at u when none survives.
func (r *reference) remove(u, v graph.NodeID) {
	r.cnt.Deletions++
	d, _, left, ok := r.g.RemoveEdge(u, v)
	if !ok {
		r.cnt.DelMisses++
		return
	}
	c := left + 1
	inv := 1.0 / float64(c)
	for id, sd := range r.segs {
		pos := -1
		for i := 0; sd.Live && i < len(sd.Path)-1 && pos < 0; i++ {
			if sd.Path[i] == u && sd.Path[i+1] == v && (c == 1 || r.rng.Float64() < inv) {
				pos = i
			}
		}
		switch {
		case pos < 0:
		case d > 0:
			to, _ := r.g.RandomOutNeighbor(u, r.rng)
			r.regrow(id, pos+1, to)
			r.cnt.DelRerouted++
		default:
			r.replace(id, pos+1, nil)
			r.cnt.DelTruncated++
		}
	}
}

func (r *reference) regrow(id, keep int, to graph.NodeID) {
	r.replace(id, keep, walk.AppendContinue(r.g, to, r.eps, r.rng, []graph.NodeID{to}))
}

func (r *reference) replace(id, keep int, tail []graph.NodeID) {
	p := r.segs[id].Path
	r.cnt.StepsOut += int64(len(p) - keep)
	r.cnt.StepsIn += int64(len(tail))
	r.segs[id].Path = append(slices.Clip(p[:keep]), tail...)
}

// ensureNode seeds R fresh walks for a node first seen mid-stream.
func (r *reference) ensureNode(v graph.NodeID) {
	if r.known[v] {
		return
	}
	r.known[v] = true
	for i := 0; i < r.r; i++ {
		seg := walk.PageRank(r.g, v, r.eps, r.rng)
		r.segs = append(r.segs, walkstore.SegmentDump{Live: true, Side: walkstore.Unsided, Path: seg.Path})
		r.cnt.StepsIn += int64(len(seg.Path))
	}
	r.cnt.Seeded += int64(r.r)
}

// estimates is ApproxAll over the reference's paths.
func (r *reference) estimates() map[graph.NodeID]float64 {
	x := make(map[graph.NodeID]float64)
	var total float64
	for _, sd := range r.segs {
		for _, v := range sd.Path {
			x[v]++
			total++
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
	cnt.Estimates = 0
	if cnt != r.cnt {
		return fmt.Sprintf("counters: maintainer %+v, reference %+v", cnt, r.cnt)
	}
	return ""
}

// refRun is one TestMatchesReference input: a serialized maintainer over
// the edgeless nodes 0..n-1, fed events in batches of batch (0 means 1),
// with the arena compacted before event compactAt when it is positive.
type refRun struct {
	name      string
	cfg       Config
	n         int
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
	mt := New(socialstore.New(buildGraph(rr.n, nil)), rr.cfg)
	mt.Bootstrap()
	ref := newReference(t, mt, buildGraph(rr.n, nil), false)
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

// TestMatchesReference pins every repair path of the serialized maintainer
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

	// Dirichlet arrivals on an edgeless node set: revivals, reroutes and the
	// skip coin on hubs (formerly TestIndexedScanMatchesLegacy).
	nA := pick(150, 80)
	arrivals := gen.DirichletStream(nA, pick(800, 300), rand.New(rand.NewPCG(72, 0)))

	// Power-law churn: the reverse reroute and reverse revival (formerly
	// TestDeletionLegacyScanBitwise).
	nD := pick(120, 70)
	churn := gen.PowerLawChurnStream(nD, pick(900, 400), 0.8, 0.35, rand.New(rand.NewPCG(42, 0)))

	// Rounds of churn through ApplyEvents, compacted halfway (formerly the
	// churn run of TestBatchedWritesMatchUnbatched).
	rounds, per := pick(6, 3), pick(120, 60)
	rng := rand.New(rand.NewPCG(322, 0))
	var rounded []graph.Event
	for i := 0; i < rounds; i++ {
		rounded = append(rounded, gen.PowerLawChurnStream(60, per, 0.9, 0.35, rng)...)
	}

	// A preferential-attachment graph replayed into an empty maintainer:
	// every endpoint is seeded mid-stream (TestSeedsNewNodesMidStream's
	// stream).
	prng := rand.New(rand.NewPCG(55, 0))
	seeded := gen.RandomPermutationStream(gen.PreferentialAttachment(pick(250, 120), 5, prng), prng)

	for _, rr := range []refRun{
		{name: "dirichlet-arrivals", cfg: Config{Eps: 0.2, R: 5, Workers: 1, Seed: 71}, n: nA, events: arrivalsOnly(arrivals)},
		{name: "powerlaw-churn", cfg: Config{Eps: 0.2, R: 5, Workers: 1, Seed: 41}, n: nD, events: churn},
		{name: "churn-rounds", cfg: Config{Eps: 0.2, R: 8, Workers: 1, Seed: 321}, n: 60, events: rounded, batch: per, compactAt: len(rounded) / 2},
		{name: "seeded-mid-stream", cfg: Config{Eps: 0.2, R: 6, Workers: 1, Seed: 404}, events: arrivalsOnly(seeded)},
	} {
		t.Run(rr.name, func(t *testing.T) {
			mt := rr.run(t)
			if c := mt.Counters(); c.Rerouted == 0 || c.FastSkips == 0 || c.Deletions > 0 && c.DelRerouted == 0 {
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
