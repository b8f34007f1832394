package repair

import (
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"fastppr/internal/graph"
	"fastppr/internal/stats"
	"fastppr/internal/stripes"
	"fastppr/internal/walk"
	"fastppr/internal/walkstore"
)

// segmentStripes is the width of the SegmentID stripe set a phase freezes
// its segments under.
const segmentStripes = 512

// TailLaw regrows a captured walk: having just stepped to at by a step
// pending on side, it appends the fresh continuation to buf, sampling
// through nb and drawing from rng.
type TailLaw func(nb walk.Neighborer, at graph.NodeID, side walkstore.Side, eps float64, rng *rand.Rand, buf []graph.NodeID) []graph.NodeID

// ResetTail is the PageRank tail law: a geometric reset walk.
func ResetTail(nb walk.Neighborer, at graph.NodeID, _ walkstore.Side, eps float64, rng *rand.Rand, buf []graph.NodeID) []graph.NodeID {
	return walk.AppendContinue(nb, at, eps, rng, buf)
}

// AlternatingTail is the SALSA tail law: the walk continues in the direction
// opposite to the step just taken, which preserves parity.
func AlternatingTail(nb walk.Neighborer, at graph.NodeID, side walkstore.Side, eps float64, rng *rand.Rand, buf []graph.NodeID) []graph.NodeID {
	return walk.AppendContinueSalsa(nb, at, walk.Direction(side).Opposite(), eps, rng, buf)
}

// Config is what a kernel is built from.
type Config struct {
	Eps  float64
	Tail TailLaw
	// Workers sizes Pool. Above 1, phases may run concurrently and Freeze
	// re-reads the index under its locks.
	Workers int
	// Pool worker wk draws from PCG(Seed, Stream<<16 + wk).
	Seed, Stream uint64
	// CompactEvery, when positive, has every CompactEvery-th MaybeCompact
	// call check the arena.
	CompactEvery int
}

// Counters is a maintainer's update-path accounting, kept by its kernel's
// phases and its Shell: atomics, so serialized and parallel events share one
// implementation. SlowNoops, a slow path that switches nothing, has no
// field: a skip coin is its phase's "at least one step switches" indicator
// and on heads the first switch is drawn before the scan, which performs it.
// Deletions have no skip coin, as no counter tracks steps through one edge,
// so they touch none of the arrival counters.
type Counters struct {
	Arrivals, FastSkips, EmptySkips, SlowPaths, Rerouted, Revived atomic.Int64
	Seeded, StepsIn, StepsOut                                     atomic.Int64
	Deletions, DelMisses, DelRerouted, DelTruncated               atomic.Int64
	Suspects, Swept                                               atomic.Int64
}

// Kernel runs one maintainer's repair phases over its walk store.
type Kernel struct {
	Cnt   Counters
	walks *walkstore.Store
	base  walk.Neighborer // the social store; see eachCoinScan
	cfg   Config
	segMu *stripes.MutexSet
	// compactTick counts completed mutations toward Config.CompactEvery.
	compactTick atomic.Int64
}

// New returns a kernel over walks whose re-steps sample base.
func New(walks *walkstore.Store, base walk.Neighborer, cfg Config) *Kernel {
	return &Kernel{walks: walks, base: base, cfg: cfg, segMu: stripes.NewMutexSet(segmentStripes)}
}

// Worker is one update goroutine's private state: its RNG and reusable
// buffers. A Shell's serialized path owns one; each Pool worker its own.
type Worker struct {
	RNG *rand.Rand
	// NB samples regrown tails and seeded walks: the social store, or during
	// a parallel deletion batch a walk.Recorder over it that notes every step
	// on one of the batch's deleted edges for the straggler sweep.
	NB walk.Neighborer

	keys  []uint64
	idx   []int // the stripes Freeze holds until Release
	hits  []walkstore.PosHit
	segs  []walkstore.SegmentID
	paths [][]graph.NodeID

	// touched records the segments whose tail this event already regrew and
	// their first fresh position, the first prior of them by earlier phases.
	// A flat slice, not a map: an event touches a handful of segments and the
	// map's per-lookup hashing was visible in the storm profile.
	touched []mark
	prior   int

	// Deferred-write state: Stage samples fresh tails into tailBuf and
	// records a pendingMut per mutation; Release applies the whole phase's
	// mutations through one stripe-grouped ReplaceTailBatch pass.
	tailBuf []graph.NodeID
	muts    []pendingMut
	tms     []walkstore.TailMutation
}

type mark struct {
	id   walkstore.SegmentID
	keep int
}

// pendingMut is one deferred ReplaceTail, its fresh tail sampled inline
// into w.tailBuf in the exact RNG order. start == end records a pure
// truncation (the deletion path's reverse revival).
type pendingMut struct {
	id         walkstore.SegmentID
	keep       int
	start, end int // w.tailBuf[start:end] is the fresh tail
}

// NewWorker returns a worker drawing from rng and sampling through nb.
func NewWorker(rng *rand.Rand, nb walk.Neighborer) *Worker { return &Worker{RNG: rng, NB: nb} }

// Scratch returns w's frozen-path and staged-tail scratch up to capacity.
func (w *Worker) Scratch() ([][]graph.NodeID, []walkstore.TailMutation) {
	return w.paths[:cap(w.paths)], w.tms[:cap(w.tms)]
}

// Reset starts a new event: no segment counts as regrown by it yet.
func (w *Worker) Reset() { w.touched = w.touched[:0] }

// limit returns the first position of segment id an earlier phase of this
// event regrew, capped at n. Positions from there on were sampled on the new
// graph, so this phase leaves them out.
func (w *Worker) limit(id walkstore.SegmentID, n int) int {
	for _, t := range w.touched[:w.prior] {
		if t.id == id {
			return min(t.keep, n)
		}
	}
	return n
}

// Arrive runs one arrival phase at n, whose degree on side just rose to d
// through a new edge to `to`. For d >= 2 each stored step out of n switches
// to the new edge with probability p = 1/d. For d == 1 every walk that
// reached the formerly dangling n ended there, and each now continues
// through the new edge with probability p = 1-eps (eps is 0 on a side with
// no reset coin).
//
// The skip coin flips against the stripe-consistent candidate counter, less
// the candidates this event already regrew; on heads the first capture is
// pre-sampled (truncated geometric) before the freeze. A certain law draws
// neither. Serialized, counter and frozen scan agree exactly. In parallel a
// cross-stripe repair can shift the count before the freeze; the scan then
// retries against the frozen enumeration, so a non-skipped phase still
// always works (SlowNoops == 0) and an emptied set downgrades to EmptySkips.
func (k *Kernel) Arrive(w *Worker, n, to graph.NodeID, side walkstore.Side, d int, eps float64) {
	terminal, p, miss := d == 1, 1-eps, eps
	count, captured := k.walks.PendingTerminals, &k.Cnt.Revived
	if !terminal {
		p = 1.0 / float64(d)
		miss, count, captured = 1-p, k.walks.PendingCandidates, &k.Cnt.Rerouted
	}
	cands := count(n, side) - k.fresh(w, n, side, terminal)
	// <= 0: under parallel arrivals a cross-stripe mutation mid-index can
	// transiently read the counter pair as negative; classify as empty.
	if cands <= 0 {
		k.Cnt.EmptySkips.Add(1)
		return
	}
	if p < 1 && w.RNG.Float64() < math.Pow(miss, float64(cands)) {
		k.Cnt.FastSkips.Add(1)
		return
	}
	first := stats.TruncatedGeometric(w.RNG, p, cands)
	k.Freeze(w, n, side)
	defer k.Release(w)
	for {
		hit, seen := k.FirstSuccessScan(w, to, side, terminal, p, first)
		switch {
		case hit > 0:
			k.Cnt.SlowPaths.Add(1)
			captured.Add(hit)
			return
		case seen == 0:
			k.Cnt.EmptySkips.Add(1)
			return
		}
		first = stats.TruncatedGeometric(w.RNG, p, seen)
	}
}

// fresh counts the candidates at n that earlier phases of this event regrew.
// They were sampled on the new graph, so they leave this phase's skip-coin
// exponent just as limit leaves them out of its scan.
func (k *Kernel) fresh(w *Worker, n graph.NodeID, side walkstore.Side, terminal bool) (c int64) {
	for _, t := range w.touched {
		segSide, p := k.walks.SideOf(t.id), k.walks.Path(t.id)
		for i := t.keep; i < len(p); i++ {
			if p[i] == n && (i == len(p)-1) == terminal && (side == walkstore.Unsided || segSide.PendingAt(i) == side) {
				c++
			}
		}
	}
	return c
}

// FirstSuccessScan is Arrive's coin pass over the frozen hits in (segment,
// position) order, the enumeration the pre-sampled first capture is drawn
// over. The candidates are the terminal hits for a revival, the other hits
// for a reroute. A segment's candidates after its own capture this pass are
// superseded but keep their enumeration slots, which seen counts.
func (k *Kernel) FirstSuccessScan(w *Worker, to graph.NodeID, side walkstore.Side, terminal bool, p float64, first int64) (captured, seen int64) {
	w.Each(func(id walkstore.SegmentID, path []graph.NodeID, hits []walkstore.PosHit) {
		limit, pos := w.limit(id, len(path)), -1
		for _, h := range hits {
			hp := int(h.Pos)
			if hp >= limit || (hp == len(path)-1) != terminal {
				continue // not a candidate of this law, or regrown this event
			}
			if pos >= 0 {
				seen++ // superseded by this segment's capture; slot still counts
				continue
			}
			if stats.FirstSuccessHit(w.RNG, first, seen, p) {
				pos = hp
			}
			seen++
		}
		if pos >= 0 {
			k.Stage(w, id, pos+1, to, side)
			w.touched = append(w.touched, mark{id, pos + 1})
			captured++
		}
	})
	return captured, seen
}

// Unroute runs one deletion phase at n: one copy of the edge between n and
// other, of multiplicity c before the removal, is gone, and n has d
// survivors on side. No skip coin and no retry loop: no counter tracks
// steps through one edge, and with no pre-sampled first capture there is
// no promise to keep.
func (k *Kernel) Unroute(w *Worker, n, other graph.NodeID, side walkstore.Side, c, d int) {
	if k.walks.PendingCandidates(n, side) <= 0 {
		return // no stored step can go through the edge
	}
	k.Freeze(w, n, side)
	defer k.Release(w)
	rerouted, truncated := k.eachCoinScan(w, n, other, side, c, d)
	k.Cnt.DelRerouted.Add(rerouted)
	k.Cnt.DelTruncated.Add(truncated)
}

// eachCoinScan walks the frozen hits in (segment, position) order. A hit is
// a candidate iff it is a step to other this event has not regrown, and
// each candidate flips its own 1/c coin (none when c == 1: the last copy
// captures every candidate). A segment's candidates after its capture are
// superseded and draw nothing.
//
// A capture is resampled: the segment keeps its prefix, re-steps to a
// uniform survivor on side (an in-neighbor for a backward step, an
// out-neighbor otherwise) with no reset coin — the captured step had
// already passed its coin — and regrows its tail. With no survivor the walk
// terminates at n, the revival law run in reverse. The re-step samples the
// base store, not w.NB: it leaves the endpoint whose stripe the caller
// holds, and every deletion of its edge holds that stripe too, so the
// straggler sweep need not watch it.
func (k *Kernel) eachCoinScan(w *Worker, n, other graph.NodeID, side walkstore.Side, c, d int) (rerouted, truncated int64) {
	inv := 1.0 / float64(c)
	resample := k.base.RandomOutNeighbor
	if side == walkstore.SideBackward {
		resample = k.base.RandomInNeighbor
	}
	w.Each(func(id walkstore.SegmentID, path []graph.NodeID, hits []walkstore.PosHit) {
		limit, pos := w.limit(id, len(path)-1), -1
		for _, h := range hits {
			hp := int(h.Pos)
			if hp < limit && path[hp+1] == other && pos < 0 && (c == 1 || w.RNG.Float64() < inv) {
				pos = hp
			}
		}
		if pos < 0 {
			return
		}
		w.touched = append(w.touched, mark{id, pos + 1})
		if d > 0 {
			if to, ok := resample(n, w.RNG); ok {
				k.Stage(w, id, pos+1, to, side)
				rerouted++
				return
			}
			// Unreachable under the endpoint stripe (d is the reply of a
			// write made under the same lock); fall through to truncation.
		}
		w.Cut(id, pos+1)
		truncated++
	})
	return rerouted, truncated
}

// Freeze prepares one phase's enumeration of n's visits pending on side: it
// probes the pending-position index, locks the hit segments' SegmentID
// stripes in ascending order, and — when phases run concurrently — re-reads
// the index under those locks so every hit position is exact, dropping hits
// of segments another worker mutated into n after the probe. It then
// bulk-fetches the frozen paths. Scan with Each; end with Release.
func (k *Kernel) Freeze(w *Worker, n graph.NodeID, side walkstore.Side) {
	w.hits = k.walks.AppendPendingPositions(w.hits[:0], n, side)
	w.segs = walkstore.DistinctSegments(w.segs, w.hits)
	w.keys = w.keys[:0]
	for _, id := range w.segs {
		w.keys = append(w.keys, uint64(id))
	}
	w.idx = k.segMu.LockKeys(w.keys, w.idx)
	if k.cfg.Workers > 1 {
		// Another worker may have mutated a probed segment between the probe
		// and the freeze; re-read now that the segments cannot move.
		w.hits = k.walks.AppendPendingPositions(w.hits[:0], n, side)
		w.hits = walkstore.KeepSegments(w.hits, w.segs)
	}
	w.paths = k.walks.AppendPaths(w.paths, w.segs)
	w.prior = len(w.touched)
}

// Each calls f for every frozen segment in ascending order, with its frozen
// path (stable: ReplaceTail relocates, never mutates) and its hits in
// ascending position order.
func (w *Worker) Each(f func(id walkstore.SegmentID, path []graph.NodeID, hits []walkstore.PosHit)) {
	g := 0
	for i := 0; i < len(w.hits); {
		id := w.hits[i].Seg
		j := i
		for j < len(w.hits) && w.hits[j].Seg == id {
			j++
		}
		// Hits arrive in ascending segment order, so the cursor over the
		// sorted frozen set only ever moves forward.
		for w.segs[g] != id {
			g++
		}
		f(id, w.paths[g], w.hits[i:j])
		i = j
	}
}

// Stage truncates frozen segment id to keep nodes, steps it to `to` by a
// step pending on side, and regrows it by the tail law through w.NB. The
// tail is sampled here, inline, so the RNG draws in candidate order; only
// the store write waits for Release.
func (k *Kernel) Stage(w *Worker, id walkstore.SegmentID, keep int, to graph.NodeID, side walkstore.Side) {
	start := len(w.tailBuf)
	w.tailBuf = append(w.tailBuf, to)
	w.tailBuf = k.cfg.Tail(w.NB, to, side, k.cfg.Eps, w.RNG, w.tailBuf)
	w.muts = append(w.muts, pendingMut{id: id, keep: keep, start: start, end: len(w.tailBuf)})
}

// Cut stages a pure truncation of frozen segment id to keep nodes.
func (w *Worker) Cut(id walkstore.SegmentID, keep int) {
	w.muts = append(w.muts, pendingMut{id: id, keep: keep})
}

// Release ends a phase. It applies every staged mutation through one
// stripe-grouped ReplaceTailBatch pass — one arena relocation critical
// section and one counter-stripe lock per touched stripe — while the
// segment stripes are still held, so the writes are visible before the next
// phase probes. Then it unlocks, and returns the visits removed and added.
func (k *Kernel) Release(w *Worker) (removed, added int) {
	// The phase's scans are over. Its frozen paths alias the arena, so they
	// are dropped rather than left in scratch capacity, where a later and
	// shorter freeze would not overwrite them and they would keep an arena
	// that Compact has since replaced reachable.
	clear(w.paths)
	w.paths = w.paths[:0]
	if len(w.muts) > 0 {
		for _, mu := range w.muts {
			var tail []graph.NodeID
			if mu.end > mu.start {
				tail = w.tailBuf[mu.start:mu.end:mu.end]
			}
			w.tms = append(w.tms, walkstore.TailMutation{ID: mu.id, Keep: mu.keep, NewTail: tail})
		}
		removed, added = k.walks.ReplaceTailBatch(w.tms)
		// Likewise the staged tails, which alias a tailBuf that append may
		// by now have outgrown.
		clear(w.tms)
		w.tms = w.tms[:0]
		w.muts = w.muts[:0]
		w.tailBuf = w.tailBuf[:0]
		k.Cnt.StepsOut.Add(int64(removed))
		k.Cnt.StepsIn.Add(int64(added))
	}
	k.segMu.UnlockSet(w.idx)
	return removed, added
}

// Pool runs apply(i, w) for every i in [0, n), claimed in the order of the
// permutation order (nil for identity) from a shared cursor by
// Config.Workers goroutines, each with its own Worker. When the batch
// deletes edges (dels), every worker samples through a walk.Recorder
// watching them; the distinct edges recorded are the sweep's suspects.
func (k *Kernel) Pool(n int, order []int, dels []graph.Edge, apply func(int, *Worker)) (suspects []graph.Edge) {
	var watch walk.EdgeSet
	if len(dels) > 0 {
		watch = walk.NewEdgeSet(dels)
	}
	recs := make([]*walk.Recorder, k.cfg.Workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for wk := range k.cfg.Workers {
		w := NewWorker(rand.New(rand.NewPCG(k.cfg.Seed, k.cfg.Stream<<16+uint64(wk))), k.base)
		if watch != nil {
			recs[wk] = walk.NewRecorder(k.base, watch)
			w.NB = recs[wk]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(cursor.Add(1)) - 1; i < n; i = int(cursor.Add(1)) - 1 {
				if order != nil {
					apply(order[i], w)
				} else {
					apply(i, w)
				}
			}
		}()
	}
	wg.Wait()
	return walk.Distinct(recs)
}

// MaybeCompact counts one completed mutation and, every CompactEvery-th,
// compacts the arena when it is worth the copy (Store.MaybeCompact). Compact
// changes no logical state, so its placement against concurrent reads is
// unconstrained; callers just must not hold segment stripes across it.
func (k *Kernel) MaybeCompact() {
	if k.cfg.CompactEvery > 0 && k.compactTick.Add(1)%int64(k.cfg.CompactEvery) == 0 {
		k.walks.MaybeCompact()
	}
}
