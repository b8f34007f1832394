package walkstore

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"fastppr/internal/graph"
)

// SegmentID identifies a stored segment. IDs are assigned densely from 0 and
// never reused.
type SegmentID int64

// Side tags a stored segment with the direction of its first step. PageRank
// segments are Unsided; SALSA segments are stored once per side so the
// maintainer can serve hub and authority scores from one store. The values
// mirror walk.Direction (Forward = 0, Backward = 1) so callers can convert
// with a cast.
type Side int8

const (
	// Unsided marks a plain reset-walk segment (no alternation structure).
	Unsided Side = -1
	// SideForward marks a segment whose first step follows an out-edge: an
	// alternating walk started on the hub side.
	SideForward Side = 0
	// SideBackward marks a segment whose first step follows an in-edge: an
	// alternating walk started on the authority side.
	SideBackward Side = 1
)

// PendingAt returns the direction of the step an alternating segment takes
// *from* path position pos: the first direction at even positions, its
// opposite at odd ones. Only valid on sided values.
func (s Side) PendingAt(pos int) Side {
	if s < 0 {
		panic("walkstore: PendingAt on unsided segment")
	}
	return Side(int8(s) ^ int8(pos&1))
}

func mustDir(d Side) {
	if d != SideForward && d != SideBackward {
		panic(fmt.Sprintf("walkstore: invalid direction %d", d))
	}
}

// MutationLog receives every segment mutation as a serialized feed, shaped
// for write-ahead logging. Each method is invoked inside the mutation's
// segMu critical section, after the segment table shows the mutation and
// with the mutation already counted as in flight for Validate, so calls are
// totally ordered and that order is a valid linearization of the store's
// mutation history: replaying the calls against an empty store (or a store
// restored to the epoch the log started at) reproduces the live store's
// segment table bitwise, dead slots and ID assignment included. The order
// is structural: the three segMu-held helpers that change the segment table
// (appendSegmentLocked, relocateLocked, retire) each journal the change they
// make, so no path mutates the table without journaling in the same
// critical section; dump_test.go's recordingLog checks all three conditions
// inside every call. Segment reads take no lock, so a concurrent Path may
// return a mutated path before its record is journaled, just as a counter
// read may see the mutation's later counter phase; journal order among the
// mutations themselves is unaffected. Path and tail slices are
// arena-resident and stable; the log may retain them. Implementations must
// not call back into the store and must not block on anything that itself
// mutates the store (the calls run under the segment lock). See
// docs/DESIGN.md#8-durability--recovery.
type MutationLog interface {
	// LogAdd records a stored segment: AddBatchSided emits one call per path,
	// in ID order. The store's epoch after the mutation completes is the
	// number of LogAdd/LogReplaceTail/LogRemove calls issued so far.
	LogAdd(id SegmentID, side Side, path []graph.NodeID)
	// LogReplaceTail records a tail replacement (keep >= 1 prefix nodes, then
	// tail). No-op replacements (keep == length, empty tail) are not logged,
	// matching their absent epoch bump.
	LogReplaceTail(id SegmentID, keep int, tail []graph.NodeID)
	// LogRemove records a segment removal. The ID is never reused.
	LogRemove(id SegmentID)
}

// Arena and segment-table geometry. The arena lives in generations (see
// arenaGen); within one, paths live in append-only chunks of at most
// chunkCap nodes that are never moved, resized or written twice; a path
// never straddles two chunks, and a path longer than chunkCap gets a chunk
// of exactly its length. New chunks are sized to the live arena (between
// minChunkCap and chunkCap), so a small store stays small and a large one
// wastes at most one path's length at the end of each 512 KiB chunk. Segment
// refs sit in blocks of refBlockLen atomic words.
const (
	chunkBits   = 16
	chunkCap    = 1 << chunkBits
	minChunkCap = 256
	refBlockLen = 1 << 10
)

// segRef is one segment's packed table word, read and written atomically:
//
//	bit  0       live
//	bits 1-2     side+1 (Unsided, SideForward, SideBackward)
//	bit  3       long: the path is longer than chunkCap and is its chunk
//	bits 4-19    offset inside the chunk (chunkBits)
//	bits 20-36   path length, at most chunkCap (refLenBits)
//	bits 37-63   chunk index inside the arena generation (refChunkBits)
//
// A long path sits at offset 0, so its ref spends the offset and length
// fields together, bits 4-36, on its length. Chunk indices count from zero
// in every generation, and a chunk holds at least minChunkCap nodes, so a
// generation would need 2^27 chunks — 256 GiB of arena — before its index
// overflowed. The zero word is a slot with no live segment.
type segRef uint64

const (
	refLong       = 1 << 3
	refOffShift   = 4
	refLenShift   = refOffShift + chunkBits
	refLenBits    = chunkBits + 1
	refChunkShift = refLenShift + refLenBits
	refChunkBits  = 64 - refChunkShift

	// maxSegLen is the longest path a ref can describe.
	maxSegLen = 1<<(refChunkShift-refOffShift) - 1
)

// packRef builds a live ref, panicking when the length or chunk index does
// not fit its field. A path longer than chunkCap must sit at offset 0 of a
// chunk of exactly its length; writeLocked places it so.
func packRef(chunk, off, n int, side Side) segRef {
	mustFitLen(n)
	if uint64(chunk) >= 1<<refChunkBits {
		panic(fmt.Sprintf("walkstore: chunk %d overflows the packed segment ref", chunk))
	}
	r := segRef(uint64(chunk)<<refChunkShift | uint64(side+1)<<1 | 1)
	if n > chunkCap {
		return r | refLong | segRef(n)<<refOffShift
	}
	return r | segRef(n)<<refLenShift | segRef(off)<<refOffShift
}

// mustFitLen panics on a path length a segment ref cannot hold.
func mustFitLen(n int) {
	if n > maxSegLen {
		panic(fmt.Sprintf("walkstore: path of %d nodes overflows the packed segment ref", n))
	}
}

func (r segRef) live() bool { return r&1 != 0 }
func (r segRef) side() Side { return Side(int8(r>>1&3) - 1) }
func (r segRef) long() bool { return r&refLong != 0 }
func (r segRef) chunk() int { return int(r >> refChunkShift) }

func (r segRef) off() int {
	if r.long() {
		return 0
	}
	return int(r >> refOffShift & (chunkCap - 1))
}

func (r segRef) n() int {
	if r.long() {
		return int(r >> refOffShift & maxSegLen)
	}
	return int(r >> refLenShift & (1<<refLenBits - 1))
}

// refBlock is one fixed-size block of the segment table.
type refBlock [refBlockLen]atomic.Uint64

// arenaGen is one generation of the arena: the chunks paths live in and the
// segment table addressing them, each published through an atomic pointer
// so a reader that loads a ref and then the chunk directory finds the ref's
// chunk there. Writers extend the current generation under segMu; Compact
// copies the live paths into a fresh generation and swaps it in with one
// pointer store, so no chunk index or table word of a generation is ever
// reused. The old generation is left to the garbage collector: a reader
// that loaded it reads the table as it stood when Compact began, which is
// frozen from then on, and slices readers hold keep their chunks alive.
type arenaGen struct {
	chunks atomic.Pointer[[][]graph.NodeID] // by chunk index
	refs   atomic.Pointer[[]*refBlock]      // by SegmentID / refBlockLen
	fill   int                              // nodes written into the last chunk; under segMu
	slots  int64                            // nodes written into the chunks; under segMu
}

// newArenaGen returns an empty generation with table blocks for nsegs IDs.
func newArenaGen(nsegs int) *arenaGen {
	g := &arenaGen{}
	blocks := make([]*refBlock, (nsegs+refBlockLen-1)/refBlockLen)
	for i := range blocks {
		blocks[i] = new(refBlock)
	}
	g.chunks.Store(new([][]graph.NodeID))
	g.refs.Store(&blocks)
	return g
}

const (
	// stripeBits selects the counter stripe from a node ID's low bits;
	// numStripes is the stripe count. Low-bit striping (rather than a hash)
	// is what makes the dense slot addressing below exact: node v lives in
	// stripe v&63 at slot v>>6, so dense ID spaces — every generator and the
	// production workload assign 0..n-1 — hit a plain slice index instead of
	// a hash map on every counter touch.
	stripeBits = 6
	numStripes = 1 << stripeBits
	// denseLimit bounds the IDs served from dense slots; rarer IDs at or
	// above it (or negative) fall back to the per-stripe sparse map, so a
	// wild ID costs a map hit instead of gigabytes of slots.
	denseLimit = 1 << 26
)

// nodeState bundles every per-node structure the store maintains — visit and
// terminal counters, owner lists, the sided pending-direction counters, and
// the pending-position index buckets — so one node-state lookup per mutation
// or read serves all of them. Before this consolidation every visit update
// hashed the same node key into half a dozen parallel maps; now it is one
// slot read plus field arithmetic, which is what keeps the index maintenance
// cheaper than the scans it replaced.
type nodeState struct {
	visits    int64 // X_v
	terminals int64 // T(v): live segments ending here
	owned     []SegmentID

	// Per-side counters over sided (alternating) segments, indexed by the
	// pending step direction of a visit: a visit at position pos of a segment
	// with first direction f has pending direction f XOR (pos&1). Visits
	// pending a Backward step are authority-side, visits pending a Forward
	// step are hub-side, so these fields are exactly the SALSA maintainer's
	// score numerators and skip-coin exponents.
	sidedVisits    [2]int64
	sidedTerminals [2]int64
	ownedSided     [2][]SegmentID

	// Pending-position index: the exact (segment, position) pairs of stored
	// visits to this node, bucketed by pending step direction (sided) or
	// into the unsided bucket. It is the counters above made enumerable —
	// the repair scans read their candidate lists from here instead of
	// walking every visitor's full path. The buckets hold exactly one entry
	// per visit, so they double as the inverted visitor index: Visitors and
	// W derive from them instead of a separately maintained multiset.
	pending [pendingBuckets]posIndex
}

// empty reports whether the node no longer holds any stored state. The
// pending buckets hold exactly one entry per visit, so visits == 0 implies
// they are empty; the other fields are checked explicitly because terminals
// and owner lists move under their own lock acquisitions during a multi-step
// mutation.
func (ns *nodeState) empty() bool {
	return ns.visits == 0 && ns.terminals == 0 && len(ns.owned) == 0 &&
		ns.sidedTerminals == [2]int64{} &&
		len(ns.ownedSided[0]) == 0 && len(ns.ownedSided[1]) == 0
}

// counterStripe owns the node states of the nodes whose IDs select it, plus
// this stripe's share of the global visit totals. Everything a single node's
// skip coin needs — visits, terminals, candidates, sided variants, pending
// positions — lives under one stripe lock, so a maintainer reads a
// consistent per-node view with one acquisition while unrelated nodes
// proceed in parallel.
type counterStripe struct {
	mu sync.RWMutex
	// dense holds node states at slot v>>stripeBits for IDs below
	// denseLimit; sparse catches everything else. numNodes counts live
	// states across both.
	dense    []*nodeState
	sparse   map[graph.NodeID]*nodeState
	numNodes int

	// Stripe shares of the global totals; Validate cross-checks that they
	// sum to the atomic globals and to a recount from the stored paths.
	totalVisits int64
	sidedTotals [2]int64

	// epoch counts mutating acquisitions of this stripe's lock: every
	// locked section that changed any node state in the stripe bumps it
	// exactly once, from inside the critical section. It is the global
	// Epoch() localized: a reader holding a stamp for the stripes it
	// depends on learns whether *those* nodes' stored state moved, without
	// being invalidated by an unrelated storm. Written under mu, read
	// atomically (StripeEpoch); Validate cross-checks the sum of all
	// stripe epochs against the global stripeTouches counter so a mutation
	// path cannot silently skip the bump.
	epoch atomic.Int64
}

// node returns the node's state, or nil.
func (st *counterStripe) node(v graph.NodeID) *nodeState {
	if u := uint64(v); u < denseLimit {
		if slot := u >> stripeBits; slot < uint64(len(st.dense)) {
			return st.dense[slot]
		}
		return nil
	}
	return st.sparse[v]
}

// nodeCreate returns the node's state, allocating it on first touch.
func (st *counterStripe) nodeCreate(v graph.NodeID) *nodeState {
	if u := uint64(v); u < denseLimit {
		slot := u >> stripeBits
		if slot >= uint64(len(st.dense)) {
			grown := make([]*nodeState, max(int(slot)+1, 2*len(st.dense)))
			copy(grown, st.dense)
			st.dense = grown
		}
		ns := st.dense[slot]
		if ns == nil {
			ns = &nodeState{}
			st.dense[slot] = ns
			st.numNodes++
		}
		return ns
	}
	ns := st.sparse[v]
	if ns == nil {
		ns = &nodeState{}
		st.sparse[v] = ns
		st.numNodes++
	}
	return ns
}

// maybeDelete drops a node whose state has fully drained.
func (st *counterStripe) maybeDelete(v graph.NodeID, ns *nodeState) {
	if !ns.empty() {
		return
	}
	if u := uint64(v); u < denseLimit {
		st.dense[u>>stripeBits] = nil
	} else {
		delete(st.sparse, v)
	}
	st.numNodes--
}

// each calls f for every live node state in the stripe. i is the stripe's
// index, needed to reconstruct dense IDs (v = slot<<stripeBits | i).
func (st *counterStripe) each(i int, f func(v graph.NodeID, ns *nodeState)) {
	for slot, ns := range st.dense {
		if ns != nil {
			f(graph.NodeID(uint64(slot)<<stripeBits|uint64(i)), ns)
		}
	}
	for v, ns := range st.sparse {
		f(v, ns)
	}
}

// ErrConcurrentMutation is returned (wrapped) by Validate when it catches a
// segment mutation in flight: the store is not corrupt, the caller raced the
// mutators. Re-run Validate at a quiescent point.
var ErrConcurrentMutation = errors.New("walkstore: concurrent mutation during Validate")

// Store holds walk segments with an inverted visit index. Reads are safe for
// arbitrary concurrent use. Mutations of *different* segments are safe
// concurrently; mutations of the same segment (ReplaceTail/Remove on one ID)
// must be serialized by the caller — the engine and both maintainers hold
// SegmentID stripe locks for exactly this. Counter state is sharded into
// numStripes lock stripes by node, so per-node reads and updates of
// unrelated nodes do not contend.
type Store struct {
	// segMu serializes the writers of the arena and segment table and the
	// quiescent passes over them, and guards the fields below it. Segment
	// reads (Path, AppendPaths, SideOf) take no lock: they load the arena
	// generation, then a ref and the chunk directory from it.
	segMu     sync.RWMutex
	arena     atomic.Pointer[arenaGen]
	nsegs     int // IDs assigned so far
	numLive   int
	liveNodes int64 // arena slots referenced by live segments
	mlog      MutationLog

	// Global counter mirrors, updated once per completed mutation (the
	// per-stripe shares stay lock-exact). Individually exact at quiescent
	// points; under concurrent mutation a reader pairing a stripe count with
	// an atomic total sees skew bounded by the mutations in flight — see
	// docs/DESIGN.md#6-concurrency-model for the snapshot semantics.
	totalVisits atomic.Int64
	sidedTotals [2]atomic.Int64

	// epoch counts completed segment mutations (Add/ReplaceTail/Remove). A
	// reader brackets work with two Epoch() calls to learn whether — and how
	// much — the store moved underneath it.
	epoch atomic.Int64

	// stripeTouches counts mutating stripe-lock acquisitions across all
	// stripes — the running sum the per-stripe epochs must add up to.
	// Maintained purely as Validate's cross-check on the stripe epochs.
	stripeTouches atomic.Int64

	// mutators counts segment mutations in flight, from inside the segMu
	// critical section of their arena phase until their last counter update
	// has landed. Validate holds segMu plus every counter stripe, so a
	// non-zero read there means a mutation is caught between phases — the one
	// state a lock-holding validator cannot distinguish from corruption — and
	// Validate fails with ErrConcurrentMutation instead of a bogus report.
	mutators atomic.Int64

	stripes [numStripes]counterStripe
}

// New returns an empty store.
func New() *Store {
	s := &Store{}
	for i := range s.stripes {
		s.stripes[i].sparse = make(map[graph.NodeID]*nodeState)
	}
	s.arena.Store(newArenaGen(0))
	return s
}

// stripeIndex returns the counter stripe index of node v.
func stripeIndex(v graph.NodeID) int {
	return int(uint64(v) & (numStripes - 1))
}

// stripe returns the counter stripe owning node v.
func (s *Store) stripe(v graph.NodeID) *counterStripe {
	return &s.stripes[stripeIndex(v)]
}

// StripeCount is the number of counter stripes as a compile-time constant,
// exported so callers keying per-stripe state (the serving tier's
// invalidation stamps fit one uint64 bitmask exactly because this is 64) can
// size arrays and fail to compile if the stripe geometry ever changes.
const StripeCount = numStripes

// StripeOf returns the index of the counter stripe owning node v — the key
// under which per-node mutations stamp StripeEpoch. Queries accumulate the
// stripes they depend on with this function.
func StripeOf(v graph.NodeID) int { return stripeIndex(v) }

// GroupByStripe returns a stable permutation of [0, n) grouping indices by
// StripeOf(node(i)): a counting sort, O(n + StripeCount). The maintainers
// pre-group a storm's arrivals by source stripe with it so consecutive
// claims touch the same counter stripe and endpoint locks (cache-local
// ingestion); stability keeps same-stripe arrivals in stream order.
func GroupByStripe(n int, node func(int) graph.NodeID) []int {
	var next [numStripes]int
	for i := 0; i < n; i++ {
		next[stripeIndex(node(i))]++
	}
	sum := 0
	for i := range next {
		next[i], sum = sum, sum+next[i]
	}
	order := make([]int, n)
	for i := 0; i < n; i++ {
		st := stripeIndex(node(i))
		order[next[st]] = i
		next[st]++
	}
	return order
}

// Epoch returns the number of completed segment mutations. Monotone;
// bracketing a read-only pass with two Epoch calls bounds how many mutations
// landed during it.
func (s *Store) Epoch() int64 { return s.epoch.Load() }

// StripeEpoch returns stripe i's mutation stamp: the number of locked
// sections that changed any node state in the stripe. It is Epoch()
// localized — a mutation bumps exactly the stripes whose nodes it touched,
// so a reader that stamps the stripes it read can detect whether *its*
// dependencies moved while unrelated stripes churn freely. Monotone;
// bumped after the owning critical section's changes are visible.
func (s *Store) StripeEpoch(i int) int64 { return s.stripes[i].epoch.Load() }

// AppendStripeEpochs appends every stripe's current epoch to dst (reset
// first), indexed by stripe. The loads are individually atomic, not a
// consistent cut: under concurrent mutation each stamp is exact for its own
// stripe, which is all the per-stripe validation protocol needs.
func (s *Store) AppendStripeEpochs(dst []int64) []int64 {
	dst = dst[:0]
	for i := range s.stripes {
		dst = append(dst, s.stripes[i].epoch.Load())
	}
	return dst
}

// touchStripeLocked records one mutating acquisition of st's lock. Caller
// holds st.mu; the paired global counter keeps Validate able to prove no
// mutation path skipped its bump.
func (s *Store) touchStripeLocked(st *counterStripe) {
	st.epoch.Add(1)
	s.stripeTouches.Add(1)
}

// SetMutationLog installs (or, with nil, detaches) the segment-mutation log.
// It is legal on a store holding live segments — the durability layer
// attaches a WAL to a store restored from a snapshot — but the caller must
// guarantee no mutation is in flight (the recovery path is single-threaded;
// a running system quiesces first), or the log would miss the straddling
// mutation.
func (s *Store) SetMutationLog(l MutationLog) {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	s.mlog = l
}

// Add stores a new unsided segment owned by its first node and returns its
// ID. The path must be non-empty. The path is copied; the caller keeps
// ownership of its slice.
func (s *Store) Add(path []graph.NodeID) SegmentID {
	return s.AddSided(path, Unsided)
}

// AddSided stores a new segment tagged with the direction of its first step.
// Sided segments additionally maintain the per-side pending-direction
// counters and the per-side owner index.
func (s *Store) AddSided(path []graph.NodeID, side Side) SegmentID {
	return s.AddBatchSided([][]graph.NodeID{path}, side)[0]
}

// AddBatch stores many unsided segments under one arena-lock acquisition —
// the bulk-load path the parallel walk engine uses to flush a burst of
// finished segments. Every path must be non-empty; paths are copied. The
// returned IDs are in input order.
func (s *Store) AddBatch(paths [][]graph.NodeID) []SegmentID {
	return s.AddBatchSided(paths, Unsided)
}

// AddBatchSided is AddBatch with every segment tagged with one side.
func (s *Store) AddBatchSided(paths [][]graph.NodeID, side Side) []SegmentID {
	if side != Unsided {
		mustDir(side)
	}
	ids := make([]SegmentID, len(paths))
	stored := make([][]graph.NodeID, len(paths))
	for _, p := range paths {
		if len(p) == 0 {
			panic("walkstore: empty segment path")
		}
		mustFitLen(len(p))
	}
	s.segMu.Lock()
	s.mutators.Add(1)
	for i, p := range paths {
		ids[i], stored[i] = s.appendSegmentLocked(p, side)
	}
	s.segMu.Unlock()
	s.indexBatch(ids, stored, side)
	s.epoch.Add(int64(len(paths)))
	s.mutators.Add(-1)
	return ids
}

// idxOp is one deferred per-node index update of a batch add, grouped by
// counter stripe so a whole batch pays one lock acquisition per touched
// stripe instead of one per visit.
type idxOp struct {
	id   SegmentID
	v    graph.NodeID
	pos  int32 // visit position; for opTerminal, the path's last position
	kind uint8
}

const (
	opVisit uint8 = iota
	opOwner
	opTerminal
)

// indexBatch registers freshly appended segments in the per-node counter
// stripes — owner lists, terminal counters, one visit (and pending-position
// entry) per path position — with all updates for one stripe applied under a
// single lock acquisition. Per-node op order follows input order, so owner
// lists keep insertion order.
func (s *Store) indexBatch(ids []SegmentID, stored [][]graph.NodeID, side Side) {
	var ops [numStripes][]idxOp
	var totalDelta int64
	var sidedDelta [2]int64
	for i, p := range stored {
		id := ids[i]
		src := p[0]
		ops[stripeIndex(src)] = append(ops[stripeIndex(src)], idxOp{id: id, v: src, kind: opOwner})
		end := p[len(p)-1]
		ops[stripeIndex(end)] = append(ops[stripeIndex(end)], idxOp{id: id, v: end, pos: int32(len(p) - 1), kind: opTerminal})
		for pos, v := range p {
			ops[stripeIndex(v)] = append(ops[stripeIndex(v)], idxOp{id: id, v: v, pos: int32(pos), kind: opVisit})
			totalDelta++
			if side >= 0 {
				sidedDelta[side.PendingAt(pos)]++
			}
		}
	}
	for si := range ops {
		if len(ops[si]) == 0 {
			continue
		}
		st := &s.stripes[si]
		st.mu.Lock()
		s.touchStripeLocked(st)
		for _, op := range ops[si] {
			switch op.kind {
			case opOwner:
				ns := st.nodeCreate(op.v)
				ns.owned = append(ns.owned, op.id)
				if side >= 0 {
					ns.ownedSided[side] = append(ns.ownedSided[side], op.id)
				}
			case opTerminal:
				ns := st.nodeCreate(op.v)
				ns.terminals++
				if side >= 0 {
					ns.sidedTerminals[side.PendingAt(int(op.pos))]++
				}
			case opVisit:
				s.addVisitLocked(st, op.id, op.v, int(op.pos), side)
			}
		}
		st.mu.Unlock()
	}
	s.bumpTotals(totalDelta, sidedDelta)
}

// bumpTotals applies one mutation's worth of deltas to the atomic global
// mirrors (the per-stripe shares are updated inside the locked sections).
func (s *Store) bumpTotals(totalDelta int64, sidedDelta [2]int64) {
	if totalDelta != 0 {
		s.totalVisits.Add(totalDelta)
	}
	for d := 0; d < 2; d++ {
		if sidedDelta[d] != 0 {
			s.sidedTotals[d].Add(sidedDelta[d])
		}
	}
}

// appendSegmentLocked writes one segment into the arena, journals it, and
// returns its ID together with the arena-resident copy of the path (stable
// forever, safe to read after the lock is released). Caller holds segMu and
// has counted the mutation as in flight.
func (s *Store) appendSegmentLocked(path []graph.NodeID, side Side) (SegmentID, []graph.NodeID) {
	id := SegmentID(s.nsegs)
	s.nsegs++
	r, stored := s.writeLocked(path, nil, side)
	s.setRefLocked(id, r)
	s.numLive++
	s.liveNodes += int64(len(path))
	if s.mlog != nil {
		s.mlog.LogAdd(id, side, stored)
	}
	return id, stored
}

// writeLocked copies a then b into the current arena generation as one
// path and returns its ref and its arena-resident copy. Caller holds segMu.
func (s *Store) writeLocked(a, b []graph.NodeID, side Side) (segRef, []graph.NodeID) {
	return s.arena.Load().write(a, b, side, s.chunkSize())
}

// chunkSize is the size of the next shared chunk: the live arena, clamped
// to [minChunkCap, chunkCap]. Caller holds segMu.
func (s *Store) chunkSize() int {
	return min(chunkCap, max(minChunkCap, int(s.liveNodes)))
}

// write copies a then b into g as one path and returns its ref and its
// arena-resident copy. The path goes at the end of the last chunk when it
// fits there, else at the start of a new chunk of size nodes (or of exactly
// its length, if longer), which is published before the caller can publish
// a ref into it. Caller holds segMu or owns an unpublished g.
func (g *arenaGen) write(a, b []graph.NodeID, side Side, size int) (segRef, []graph.NodeID) {
	n := len(a) + len(b)
	dir := *g.chunks.Load()
	if len(dir) == 0 || g.fill+n > len(dir[len(dir)-1]) {
		grown := append(dir, make([]graph.NodeID, max(n, size)))
		g.chunks.Store(&grown)
		dir, g.fill = grown, 0
	}
	last := len(dir) - 1
	off := g.fill
	c := dir[last][off : off+n : off+n]
	copy(c[copy(c, a):], b)
	g.fill += n
	g.slots += int64(n)
	return packRef(last, off, n, side), c
}

// setRefLocked publishes r as segment id's table word in the current arena
// generation. Caller holds segMu.
func (s *Store) setRefLocked(id SegmentID, r segRef) {
	s.arena.Load().setRef(id, r)
}

// setRef publishes r as segment id's table word, adding table blocks up to
// id's first. Caller holds segMu or owns an unpublished g.
func (g *arenaGen) setRef(id SegmentID, r segRef) {
	blocks := *g.refs.Load()
	b := int(id / refBlockLen)
	if b >= len(blocks) {
		grown := blocks
		for b >= len(grown) {
			grown = append(grown, new(refBlock))
		}
		g.refs.Store(&grown)
		blocks = grown
	}
	blocks[b][id%refBlockLen].Store(uint64(r))
}

// refAt returns segment id's table word in the current arena generation:
// zero for an ID never assigned or removed.
func (s *Store) refAt(id SegmentID) segRef { return s.arena.Load().refAt(id) }

func (g *arenaGen) refAt(id SegmentID) segRef {
	blocks := *g.refs.Load()
	if b := uint64(id) / refBlockLen; b < uint64(len(blocks)) {
		return segRef(blocks[b][uint64(id)%refBlockLen].Load())
	}
	return 0
}

// ref returns the live ref of id, panicking on unknown or removed segments.
func (s *Store) ref(id SegmentID) segRef { return s.arena.Load().ref(id) }

func (g *arenaGen) ref(id SegmentID) segRef {
	r := g.refAt(id)
	if !r.live() {
		unknownSegment(id)
	}
	return r
}

func unknownSegment(id SegmentID) {
	panic(fmt.Sprintf("walkstore: unknown segment %d", id))
}

// pathOf returns the window a ref of the current arena generation
// addresses. Caller holds segMu, so the generation cannot change between
// loading r and resolving it.
func (s *Store) pathOf(r segRef) []graph.NodeID { return s.arena.Load().pathOf(r) }

// pathOf returns the chunk window r addresses, capacity-clamped so callers
// cannot append into the arena. r must come from g's table: the chunk
// directory is loaded after r, so it holds r's chunk.
func (g *arenaGen) pathOf(r segRef) []graph.NodeID {
	c := (*g.chunks.Load())[r.chunk()]
	if r.long() {
		return c[:len(c):len(c)]
	}
	off, end := r.off(), r.off()+r.n()
	return c[off:end:end]
}

// addVisitLocked records one visit of segment id to v at path position pos:
// visit counters, stripe share and pending-position index — one node
// lookup, then field arithmetic. The caller holds v's stripe lock and is
// responsible for the atomic global totals (bumpTotals).
func (s *Store) addVisitLocked(st *counterStripe, id SegmentID, v graph.NodeID, pos int, side Side) {
	ns := st.nodeCreate(v)
	ns.visits++
	st.totalVisits++
	if side >= 0 {
		d := side.PendingAt(pos)
		ns.sidedVisits[d]++
		st.sidedTotals[d]++
	}
	ns.pending[pendingBucket(side, pos)].add(id, int32(pos))
}

// removeVisitLocked is addVisitLocked's inverse; it does not drain the node
// (callers run maybeDelete once their stripe group completes).
func (s *Store) removeVisitLocked(st *counterStripe, ns *nodeState, id SegmentID, pos int, side Side) {
	ns.visits--
	st.totalVisits--
	if side >= 0 {
		d := side.PendingAt(pos)
		ns.sidedVisits[d]--
		st.sidedTotals[d]--
	}
	ns.pending[pendingBucket(side, pos)].remove(id, int32(pos))
}

// tailOp is one deferred counter update of a ReplaceTail/Remove, batched by
// stripe exactly like idxOp: a redirect touches ~2L positions across ~2L
// stripes' worth of nodes, and paying one lock acquisition and one atomic
// total update per mutation instead of one per visit is a large share of the
// arrival hot path.
type tailOp struct {
	id   SegmentID
	v    graph.NodeID
	pos  int32
	kind uint8
	side Side // the mutated segment's stored side (Unsided for plain walks)
	d    Side // direction for sided terminal ops
}

const (
	tailVisitRemove uint8 = iota
	tailVisitAdd
	tailTermDec
	tailTermInc
	tailSidedDec
	tailSidedInc
)

var tailOpPool = sync.Pool{New: func() any { b := make([]tailOp, 0, 64); return &b }}

// applyTailOps groups ops by counter stripe (stable, so one node's removals
// keep their descending-position order) and applies each group under a
// single stripe-lock acquisition, then bumps the atomic totals once. Every
// op carries its own segment and side, so one call can apply a whole batch
// of tail mutations spanning segments of different sides, with each touched
// stripe still paying exactly one mutating acquisition for the batch.
func (s *Store) applyTailOps(ops []tailOp) {
	sortOpsByStripe(ops)
	var totalDelta int64
	var sidedDelta [2]int64
	for i := 0; i < len(ops); {
		si := stripeIndex(ops[i].v)
		st := &s.stripes[si]
		st.mu.Lock()
		s.touchStripeLocked(st)
		j := i
		for ; j < len(ops) && stripeIndex(ops[j].v) == si; j++ {
			op := ops[j]
			switch op.kind {
			case tailVisitRemove:
				ns := st.node(op.v)
				if ns == nil {
					st.mu.Unlock()
					panic(fmt.Sprintf("walkstore: removing absent visit of segment %d at node %d", op.id, op.v))
				}
				s.removeVisitLocked(st, ns, op.id, int(op.pos), op.side)
				totalDelta--
				if op.side >= 0 {
					sidedDelta[op.side.PendingAt(int(op.pos))]--
				}
				st.maybeDelete(op.v, ns)
			case tailVisitAdd:
				s.addVisitLocked(st, op.id, op.v, int(op.pos), op.side)
				totalDelta++
				if op.side >= 0 {
					sidedDelta[op.side.PendingAt(int(op.pos))]++
				}
			case tailTermDec:
				ns := st.node(op.v)
				ns.terminals--
				st.maybeDelete(op.v, ns)
			case tailTermInc:
				st.nodeCreate(op.v).terminals++
			case tailSidedDec:
				ns := st.node(op.v)
				ns.sidedTerminals[op.d]--
				st.maybeDelete(op.v, ns)
			case tailSidedInc:
				st.nodeCreate(op.v).sidedTerminals[op.d]++
			}
		}
		st.mu.Unlock()
		i = j
	}
	s.bumpTotals(totalDelta, sidedDelta)
}

// sortOpsByStripe stably sorts ops by counter stripe index: insertion sort
// for a single mutation's ~2L ops, counting sort over the 64 stripes for
// larger batches. Both are stable, so a batch applies each stripe's ops in
// exactly the order a sequence of single mutations would have — the
// byte-equality the batched write path is proven against.
func sortOpsByStripe(ops []tailOp) {
	if len(ops) <= 32 {
		for i := 1; i < len(ops); i++ {
			for j := i; j > 0 && stripeIndex(ops[j-1].v) > stripeIndex(ops[j].v); j-- {
				ops[j-1], ops[j] = ops[j], ops[j-1]
			}
		}
		return
	}
	var next [numStripes]int
	for i := range ops {
		next[stripeIndex(ops[i].v)]++
	}
	sum := 0
	for i := range next {
		next[i], sum = sum, sum+next[i]
	}
	tmpp := tailOpPool.Get().(*[]tailOp)
	tmp := slices.Grow((*tmpp)[:0], len(ops))[:len(ops)]
	for _, op := range ops {
		si := stripeIndex(op.v)
		tmp[next[si]] = op
		next[si]++
	}
	copy(ops, tmp)
	*tmpp = tmp[:0]
	tailOpPool.Put(tmpp)
}

// Path returns the segment's node path. The returned slice must not be
// modified, but it is stable: no arena slot is written twice and
// ReplaceTail writes revised paths to fresh arena space, so the slice keeps
// its contents even after later mutations of the same segment or a Compact.
// This stability is what lets concurrent readers (the query layer's
// splices, the maintainers' scans) hold a coherent path with no copy while
// mutations continue. Path takes no lock: it loads the arena generation,
// the segment's ref in it and the generation's chunk directory.
func (s *Store) Path(id SegmentID) []graph.NodeID {
	g := s.arena.Load()
	return g.pathOf(g.ref(id))
}

// AppendPaths appends the paths of ids to dst (reset first) — the repair
// scans' bulk fetch of a whole frozen segment set. The returned slices carry
// Path's stability guarantee.
func (s *Store) AppendPaths(dst [][]graph.NodeID, ids []SegmentID) [][]graph.NodeID {
	dst = dst[:0]
	g := s.arena.Load()
	for _, id := range ids {
		dst = append(dst, g.pathOf(g.ref(id)))
	}
	return dst
}

// OwnedBy returns the IDs of segments whose walks start at u, in insertion
// order. The returned slice is a copy.
func (s *Store) OwnedBy(u graph.NodeID) []SegmentID {
	st := s.stripe(u)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if ns := st.node(u); ns != nil {
		return append([]SegmentID(nil), ns.owned...)
	}
	return nil
}

// AppendOwnedSided appends to dst the IDs of u's stored segments whose first
// step has the given direction, in insertion order, read under one stripe
// read lock, and returns the extended slice. The appended IDs are a snapshot:
// later mutations of u's owner list do not reach them.
func (s *Store) AppendOwnedSided(dst []SegmentID, u graph.NodeID, side Side) []SegmentID {
	mustDir(side)
	st := s.stripe(u)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if ns := st.node(u); ns != nil {
		dst = append(dst, ns.ownedSided[side]...)
	}
	return dst
}

// SideOf returns the side a live segment was stored with (Unsided for plain
// reset walks). Like Path, it takes no lock.
func (s *Store) SideOf(id SegmentID) Side {
	return s.ref(id).side()
}

// PendingVisits returns the number of stored sided visits to v whose pending
// step has direction dir (terminal visits included). Visits pending a
// Backward step are authority-side visits; pending Forward, hub-side.
func (s *Store) PendingVisits(v graph.NodeID, dir Side) int64 {
	mustDir(dir)
	st := s.stripe(v)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if ns := st.node(v); ns != nil {
		return ns.sidedVisits[dir]
	}
	return 0
}

// PendingTerminals returns the number of stored sided segments that end at v
// with a pending step of direction dir — the walks an arriving edge can
// revive when v gains its first edge in that direction. For Unsided it is
// Terminals(v), so a repair phase reads one counter API for every side.
func (s *Store) PendingTerminals(v graph.NodeID, dir Side) int64 {
	if dir == Unsided {
		return s.Terminals(v)
	}
	mustDir(dir)
	st := s.stripe(v)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if ns := st.node(v); ns != nil {
		return ns.sidedTerminals[dir]
	}
	return 0
}

// PendingCandidates returns the number of dir-direction steps stored sided
// segments actually take from v (pending visits minus terminals) — the exact
// exponent of the SALSA maintainer's skip coin, the sided analogue of
// Candidates. Both counts are read under v's stripe lock, so the difference
// is a consistent per-node snapshot even while other nodes mutate. For
// Unsided it is Candidates(v).
func (s *Store) PendingCandidates(v graph.NodeID, dir Side) int64 {
	if dir == Unsided {
		return s.Candidates(v)
	}
	mustDir(dir)
	st := s.stripe(v)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if ns := st.node(v); ns != nil {
		return ns.sidedVisits[dir] - ns.sidedTerminals[dir]
	}
	return 0
}

// eachCount calls fn(v, count(ns)) for every node whose count is non-zero,
// stripe by stripe under each stripe's read lock.
func (s *Store) eachCount(count func(ns *nodeState) int64, fn func(v graph.NodeID, x int64)) {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		st.each(i, func(v graph.NodeID, ns *nodeState) {
			if x := count(ns); x != 0 {
				fn(v, x)
			}
		})
		st.mu.RUnlock()
	}
}

// numNodes returns the number of live node states, for sizing full-table
// copies.
func (s *Store) numNodes() int {
	n := 0
	for i := range s.stripes {
		s.stripes[i].mu.RLock()
		n += s.stripes[i].numNodes
		s.stripes[i].mu.RUnlock()
	}
	return n
}

// EachPendingVisitCount calls fn(v, x) for every node with a non-zero
// pending-dir visit count x, in no particular order. Each stripe is read
// under its own lock, so the pass is per-stripe consistent and exact at a
// quiescent point; the sum of the x is then the side total
// PendingVisitFraction reports. Nothing is
// allocated: a reader that only ranks or sums (a top-k query) streams the
// table instead of copying it. fn runs under a counter stripe's read lock
// and must not call back into the store.
func (s *Store) EachPendingVisitCount(dir Side, fn func(v graph.NodeID, x int64)) {
	mustDir(dir)
	s.eachCount(func(ns *nodeState) int64 { return ns.sidedVisits[dir] }, fn)
}

// PendingVisitFraction returns the pending-dir visit count of v together
// with the side total. The count is read under v's stripe lock; the total is
// the atomic global, so under concurrent mutation the ratio has bounded skew
// (at most the mutations in flight) rather than lock-exact consistency.
func (s *Store) PendingVisitFraction(v graph.NodeID, dir Side) (visits, total int64) {
	mustDir(dir)
	st := s.stripe(v)
	st.mu.RLock()
	if ns := st.node(v); ns != nil {
		visits = ns.sidedVisits[dir]
	}
	st.mu.RUnlock()
	return visits, s.sidedTotals[dir].Load()
}

// Visitors returns the IDs of segments that visit v, ascending. It is
// derived from the pending-position buckets (which hold one entry per
// visit), so it costs a sort over the visit count rather than a table read —
// and, like AppendPendingPositions, the stripe's write lock when a bucket
// has unfolded writes. Its length is the paper's W(v), the number of
// distinct segments visiting v. Acceptable for its remaining callers
// (tests); the hot paths consume AppendPendingPositions directly.
func (s *Store) Visitors(v graph.NodeID) []SegmentID {
	var ids []SegmentID
	s.viewPending(v, 0, pendingBuckets, func(ns *nodeState) {
		for b := range ns.pending {
			ids = ns.pending[b].appendSegs(ids)
		}
	})
	slices.Sort(ids)
	return slices.Compact(ids)
}

// Visits returns X_v, the total visit count of v across stored segments.
func (s *Store) Visits(v graph.NodeID) int64 {
	st := s.stripe(v)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if ns := st.node(v); ns != nil {
		return ns.visits
	}
	return 0
}

// Terminals returns T(v), the number of stored segments whose path ends at v.
func (s *Store) Terminals(v graph.NodeID) int64 {
	st := s.stripe(v)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if ns := st.node(v); ns != nil {
		return ns.terminals
	}
	return 0
}

// Candidates returns X_v - T(v): the number of outgoing walk steps stored
// segments take from v. An edge arriving at source v perturbs the store with
// probability exactly 1-(1-1/d)^Candidates(v), the quantity behind the
// incremental maintainer's skip coin (the paper states the bound with W(v),
// which coincides when segments visit v at most once and never end there).
// Both counts live under v's stripe lock, so the difference is a consistent
// per-node snapshot.
func (s *Store) Candidates(v graph.NodeID) int64 {
	st := s.stripe(v)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if ns := st.node(v); ns != nil {
		return ns.visits - ns.terminals
	}
	return 0
}

// VisitFraction returns X_v together with the total visit count. The count
// is read under v's stripe lock, the total atomically; see
// PendingVisitFraction for the skew bound under concurrent mutation.
func (s *Store) VisitFraction(v graph.NodeID) (visits, total int64) {
	st := s.stripe(v)
	st.mu.RLock()
	if ns := st.node(v); ns != nil {
		visits = ns.visits
	}
	st.mu.RUnlock()
	return visits, s.totalVisits.Load()
}

// TotalVisits returns the sum of X_v over all nodes (= total stored steps).
func (s *Store) TotalVisits() int64 {
	return s.totalVisits.Load()
}

// EachVisitCount calls fn(v, X_v) for every node with X_v != 0: the
// streaming form of VisitCounts, under EachPendingVisitCount's contract. The
// sum of the X_v of a quiescent pass is TotalVisits.
func (s *Store) EachVisitCount(fn func(v graph.NodeID, x int64)) {
	s.eachCount(func(ns *nodeState) int64 { return ns.visits }, fn)
}

// VisitCounts returns a copy of the full X_v table, per-stripe consistent
// (exact at quiescent points).
func (s *Store) VisitCounts() map[graph.NodeID]int64 {
	out := make(map[graph.NodeID]int64, s.numNodes())
	s.EachVisitCount(func(v graph.NodeID, x int64) { out[v] = x })
	return out
}

// NumSegments returns the number of stored (live) segments.
func (s *Store) NumSegments() int {
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	return s.numLive
}

// ArenaStats reports the arena's live and total node slots: the slots live
// segments reference and the slots written into the current generation's
// chunks. The difference is garbage left behind by ReplaceTail/Remove,
// which Compact reclaims.
func (s *Store) ArenaStats() (live, total int64) {
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	return s.liveNodes, s.arena.Load().slots
}

// compactMinGarbageFrac is the garbage fraction below which MaybeCompact
// declines to compact. Compact pays a full copy of the live arena, so a
// periodic trigger that fired unconditionally would repeatedly copy a huge,
// mostly-live arena to reclaim slivers — at large n that costs orders of
// magnitude more than the mutations between triggers.
const compactMinGarbageFrac = 0.25

// MaybeCompact runs Compact only when at least compactMinGarbageFrac of the
// arena is garbage, reporting whether it compacted. The periodic triggers
// (the maintainers' CompactEvery ticks, the window driver) call this
// instead of Compact directly: the tick decides how often the ratio is
// checked, the ratio decides whether a copy is worth it. The check is a
// snapshot — a concurrent mutation may move the ratio before Compact takes
// the segment lock — which costs only a marginally early or late
// compaction, never correctness.
func (s *Store) MaybeCompact() bool {
	live, total := s.ArenaStats()
	if total == 0 || float64(total-live) < compactMinGarbageFrac*float64(total) {
		return false
	}
	s.Compact()
	return true
}

// Compact rewrites every live segment's path into a fresh arena generation
// (densely packed, in segment-ID order) and swaps it in, reclaiming the
// garbage ReplaceTail and Remove leave behind. It changes no logical state:
// no visit moves, no counter changes, Epoch()/StripeEpoch stamps stay put,
// and nothing is written to the mutation log — a compaction commutes with
// replaying the log, so WAL sequence numbers and checkpoint epochs are
// unaffected. It holds segMu for writing, so no other writer overlaps it,
// but readers go on: the new generation is built unpublished and swapped in
// with one pointer store, so a reader resolves each ref in the generation
// it loaded, whose table stopped changing when Compact began. The
// stable-Path contract survives because previously returned slices keep
// pointing into the old chunks, which are never written again (the garbage
// collector retains them while any such slice is live). Every generation
// numbers its chunks from zero, so the chunk index a ref can hold bounds
// one generation's arena, not the store's lifetime. Returns the live slot
// count and the number reclaimed.
func (s *Store) Compact() (live, reclaimed int64) {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	prev := s.arena.Load()
	if prev.slots == s.liveNodes {
		return s.liveNodes, 0
	}
	next := newArenaGen(s.nsegs)
	size := s.chunkSize()
	for i := 0; i < s.nsegs; i++ {
		id := SegmentID(i)
		if r := prev.refAt(id); r.live() {
			moved, _ := next.write(prev.pathOf(r), nil, r.side(), size)
			next.setRef(id, moved)
		}
	}
	s.arena.Store(next)
	return s.liveNodes, prev.slots - next.slots
}

// ReplaceTail truncates the segment to its first keep nodes (keep >= 1) and
// appends newTail, updating the visit index. It returns the number of
// removed and added visits, which the maintainer accounts as update work.
// The revised path is written to fresh arena space, so slices previously
// returned by Path keep their old contents (copy-on-truncate). Concurrent
// ReplaceTail/Remove calls on the same segment must be serialized by the
// caller; calls on distinct segments may run concurrently.
func (s *Store) ReplaceTail(id SegmentID, keep int, newTail []graph.NodeID) (removed, added int) {
	old, side := s.relocate(id, keep, newTail)
	if old == nil {
		return 0, 0
	}
	opsp := tailOpPool.Get().(*[]tailOp)
	ops, removed, added := appendTailOps((*opsp)[:0], id, keep, newTail, old, side)
	s.applyTailOps(ops)
	*opsp = ops[:0]
	tailOpPool.Put(opsp)
	s.epoch.Add(1)
	s.mutators.Add(-1)
	return removed, added
}

// appendTailOps appends one tail replacement's counter/index ops in the
// canonical order: terminal hand-off (when the endpoint moved), sided
// terminal hand-off, visit removals descending from the old end down to
// keep, then tail additions ascending. Returns ops plus the removed/added
// visit counts. old is the pre-relocation path, side the segment's side.
func appendTailOps(ops []tailOp, id SegmentID, keep int, newTail []graph.NodeID, old []graph.NodeID, side Side) (_ []tailOp, removed, added int) {
	n := keep + len(newTail)
	newEnd := old[keep-1]
	if len(newTail) > 0 {
		newEnd = newTail[len(newTail)-1]
	}
	oldEnd := old[len(old)-1]
	if oldEnd != newEnd {
		ops = append(ops,
			tailOp{id: id, v: oldEnd, kind: tailTermDec, side: side},
			tailOp{id: id, v: newEnd, kind: tailTermInc, side: side})
	}
	if side >= 0 {
		oldD := side.PendingAt(len(old) - 1)
		newD := side.PendingAt(n - 1)
		if oldEnd != newEnd || oldD != newD {
			ops = append(ops,
				tailOp{id: id, v: oldEnd, kind: tailSidedDec, d: oldD, side: side},
				tailOp{id: id, v: newEnd, kind: tailSidedInc, d: newD, side: side})
		}
	}
	for pos := len(old) - 1; pos >= keep; pos-- {
		ops = append(ops, tailOp{id: id, v: old[pos], pos: int32(pos), kind: tailVisitRemove, side: side})
		removed++
	}
	for i, v := range newTail {
		ops = append(ops, tailOp{id: id, v: v, pos: int32(keep + i), kind: tailVisitAdd, side: side})
		added++
	}
	return ops, removed, added
}

// TailMutation is one deferred tail replacement: truncate segment ID to its
// first Keep nodes (Keep >= 1) and append NewTail.
type TailMutation struct {
	ID      SegmentID
	Keep    int
	NewTail []graph.NodeID
}

// relocated carries one batch entry's arena-phase result into the op-build
// phase; a no-op entry keeps old == nil.
type relocated struct {
	old  []graph.NodeID
	side Side
}

var (
	relocPool    = sync.Pool{New: func() any { b := make([]relocated, 0, 16); return &b }}
	batchLenPool = sync.Pool{New: func() any { return make(map[SegmentID]int) }}
)

// ReplaceTailBatch applies a sequence of tail replacements as one bulk
// mutation. The arena rewrites and mutation-log records of the whole batch
// land under a single segment-lock acquisition, in slice order, so the log
// reads exactly as if the calls had been sequential; the counter and
// pending-index updates are then grouped so each touched counter stripe
// pays one lock acquisition (and one StripeEpoch bump) for all of the
// batch's positions instead of one per mutation. The resulting store state
// — index enumeration included — is identical to calling ReplaceTail once
// per entry in order, and the epoch advances by the number of non-no-op
// entries exactly as the sequential calls would have. Entries may span
// segments of different sides, and mutating the same segment twice in one
// batch is legal (later entries see earlier ones' effects). The whole batch
// is checked before any entry is applied, so an entry ReplaceTail would
// reject panics with the store untouched. Like ReplaceTail, concurrent
// mutations of any segment in the batch must be serialized by the caller.
// Returns the batch's total removed and added visit counts.
func (s *Store) ReplaceTailBatch(muts []TailMutation) (removed, added int) {
	if len(muts) == 0 {
		return 0, 0
	}
	if len(muts) == 1 {
		return s.ReplaceTail(muts[0].ID, muts[0].Keep, muts[0].NewTail)
	}
	relp := relocPool.Get().(*[]relocated)
	rel := (*relp)[:0]
	nonNoops := 0
	s.segMu.Lock()
	func() {
		defer s.segMu.Unlock()
		s.checkBatchLocked(muts)
		for i := range muts {
			m := &muts[i]
			old, side := s.relocateLocked(m.ID, m.Keep, m.NewTail)
			if old != nil {
				nonNoops++
			}
			rel = append(rel, relocated{old: old, side: side})
		}
	}()
	if nonNoops == 0 {
		*relp = rel[:0]
		relocPool.Put(relp)
		return 0, 0
	}
	opsp := tailOpPool.Get().(*[]tailOp)
	ops := (*opsp)[:0]
	for i := range muts {
		re := &rel[i]
		if re.old == nil {
			continue
		}
		m := &muts[i]
		var rm, ad int
		ops, rm, ad = appendTailOps(ops, m.ID, m.Keep, m.NewTail, re.old, re.side)
		removed += rm
		added += ad
	}
	s.applyTailOps(ops)
	*opsp = ops[:0]
	tailOpPool.Put(opsp)
	*relp = rel[:0]
	relocPool.Put(relp)
	s.epoch.Add(int64(nonNoops))
	s.mutators.Add(-int64(nonNoops))
	return removed, added
}

// checkBatchLocked panics on the first entry of muts that relocateLocked
// would reject, judging each entry against its segment's length after the
// batch's earlier entries, so a bad batch is refused before it writes
// anything. Caller holds segMu.
func (s *Store) checkBatchLocked(muts []TailMutation) {
	lens := batchLenPool.Get().(map[SegmentID]int)
	defer func() {
		for i := range muts {
			delete(lens, muts[i].ID)
		}
		batchLenPool.Put(lens)
	}()
	for i := range muts {
		m := &muts[i]
		n, ok := lens[m.ID]
		if !ok {
			n = s.ref(m.ID).n()
		}
		checkTail(n, m.Keep, len(m.NewTail))
		lens[m.ID] = m.Keep + len(m.NewTail)
	}
}

// checkTail panics unless a segment of n nodes can keep its first keep and
// take tail more.
func checkTail(n, keep, tail int) {
	if keep < 1 || keep > n {
		panic(fmt.Sprintf("walkstore: ReplaceTail keep=%d out of range for len=%d", keep, n))
	}
	mustFitLen(keep + tail)
}

// relocate performs ReplaceTail's arena phase under the segment lock: it
// validates the request and, unless it is a no-op, writes prefix copy plus
// new tail to fresh arena space and repoints the segment. The returned old
// path is the pre-relocation arena window — never written again, so reading
// it after the lock drops is safe; it is nil for a no-op.
func (s *Store) relocate(id SegmentID, keep int, newTail []graph.NodeID) (old []graph.NodeID, side Side) {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	return s.relocateLocked(id, keep, newTail)
}

// relocateLocked is relocate's body for a caller already holding segMu.
// Unless the request is a no-op it counts the relocation as in flight and
// journals it; the caller releases one in-flight count per non-no-op entry
// once the counter updates have landed.
func (s *Store) relocateLocked(id SegmentID, keep int, newTail []graph.NodeID) (old []graph.NodeID, side Side) {
	r := s.ref(id)
	checkTail(r.n(), keep, len(newTail))
	if keep == r.n() && len(newTail) == 0 {
		return nil, r.side()
	}
	old = s.pathOf(r)
	moved, stored := s.writeLocked(old[:keep], newTail, r.side())
	s.setRefLocked(id, moved)
	s.liveNodes += int64(len(stored) - len(old))
	s.mutators.Add(1)
	if s.mlog != nil {
		s.mlog.LogReplaceTail(id, keep, stored[keep:])
	}
	return old, r.side()
}

// Remove deletes a segment entirely, unwinding its visits. Used when a node
// is retired or a maintainer is rebuilt. The ID is not reused. Like
// ReplaceTail, concurrent mutations of the same segment must be serialized
// by the caller.
func (s *Store) Remove(id SegmentID) {
	p, side := s.retire(id)
	opsp := tailOpPool.Get().(*[]tailOp)
	ops := (*opsp)[:0]
	ops = append(ops, tailOp{id: id, v: p[len(p)-1], kind: tailTermDec, side: side})
	if side >= 0 {
		ops = append(ops, tailOp{id: id, v: p[len(p)-1], kind: tailSidedDec, d: side.PendingAt(len(p) - 1), side: side})
	}
	for pos := len(p) - 1; pos >= 0; pos-- {
		ops = append(ops, tailOp{id: id, v: p[pos], pos: int32(pos), kind: tailVisitRemove, side: side})
	}
	s.applyTailOps(ops)
	*opsp = ops[:0]
	tailOpPool.Put(opsp)
	src := p[0]
	st := s.stripe(src)
	st.mu.Lock()
	s.touchStripeLocked(st)
	if ns := st.node(src); ns != nil {
		if i := slices.Index(ns.owned, id); i >= 0 {
			ns.owned = slices.Delete(ns.owned, i, i+1)
		}
		if side >= 0 {
			if i := slices.Index(ns.ownedSided[side], id); i >= 0 {
				ns.ownedSided[side] = slices.Delete(ns.ownedSided[side], i, i+1)
			}
		}
		st.maybeDelete(src, ns)
	}
	st.mu.Unlock()
	s.epoch.Add(1)
	s.mutators.Add(-1)
}

// retire performs Remove's segment-table phase under the segment lock,
// counting it as in flight and journaling it, and returns the (stable,
// still-readable) path and side of the now-dead segment.
func (s *Store) retire(id SegmentID) ([]graph.NodeID, Side) {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	r := s.ref(id)
	s.mutators.Add(1)
	p := s.pathOf(r)
	s.setRefLocked(id, 0)
	s.numLive--
	s.liveNodes -= int64(r.n())
	if s.mlog != nil {
		s.mlog.LogRemove(id)
	}
	return p, r.side()
}

// Validate checks the visit counters, pending-position index, arena
// references, per-stripe residency, and the per-stripe total shares against
// the stored paths. O(total path length); for tests.
//
// Validate is only meaningful on a consistent store, and it enforces that
// itself: it acquires the segment lock plus every counter stripe (blocking
// new mutations for the duration), then checks the in-flight mutation count.
// The stripes are taken for writing, because checking a pending-position
// bucket's entries folds its write log in first (after the bucket's layout
// has been checked as found) — as for any index read, a change of
// representation that Epoch, StripeEpoch and the mutation log do not see.
// A mutation caught between its arena phase and its counter updates holds no
// lock, so without the check it would be indistinguishable from corruption;
// with it, Validate fails loudly with ErrConcurrentMutation (wrapped, test
// with errors.Is) instead of reporting a bogus mismatch. Callers that cannot
// guarantee quiescence may also bracket Validate with Epoch() reads to learn
// how much the store moved around the pass.
func (s *Store) Validate() error {
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
		defer s.stripes[i].mu.Unlock()
	}
	// With segMu and every stripe held, a mutation can neither start (the
	// arena phase needs segMu) nor advance (counter updates need a stripe),
	// so a non-zero count here is definitive, not transient.
	if n := s.mutators.Load(); n != 0 {
		return fmt.Errorf("%w: %d segment mutations in flight", ErrConcurrentMutation, n)
	}

	wantVisits := make(map[graph.NodeID]int64)
	wantTerminals := make(map[graph.NodeID]int64)
	var wantSidedVisits, wantSidedTerminals [2]map[graph.NodeID]int64
	var wantSidedTotals [2]int64
	for d := 0; d < 2; d++ {
		wantSidedVisits[d] = make(map[graph.NodeID]int64)
		wantSidedTerminals[d] = make(map[graph.NodeID]int64)
	}
	var wantPending [pendingBuckets]map[graph.NodeID]map[PosHit]bool
	for b := range wantPending {
		wantPending[b] = make(map[graph.NodeID]map[PosHit]bool)
	}
	var total, live int64
	numLive := 0
	g := s.arena.Load()
	dir := *g.chunks.Load()
	for i := 0; i < s.nsegs; i++ {
		id := SegmentID(i)
		r := g.refAt(id)
		if !r.live() {
			continue
		}
		numLive++
		if r.n() <= 0 {
			return fmt.Errorf("walkstore: segment %d has empty path", id)
		}
		if r.chunk() >= len(dir) || r.off()+r.n() > len(dir[r.chunk()]) || r.long() && r.n() != len(dir[r.chunk()]) {
			return fmt.Errorf("walkstore: segment %d ref (chunk %d, %d, %d) outside its chunk of %d chunks", id, r.chunk(), r.off(), r.n(), len(dir))
		}
		p := g.pathOf(r)
		live += int64(len(p))
		side := r.side()
		wantTerminals[p[len(p)-1]]++
		for pos, v := range p {
			wantVisits[v]++
			total++
			if side >= 0 {
				d := side.PendingAt(pos)
				wantSidedVisits[d][v]++
				wantSidedTotals[d]++
			}
			b := pendingBucket(side, pos)
			if wantPending[b][v] == nil {
				wantPending[b][v] = make(map[PosHit]bool)
			}
			wantPending[b][v][PosHit{Seg: id, Pos: int32(pos)}] = true
		}
		if side >= 0 {
			wantSidedTerminals[side.PendingAt(len(p)-1)][p[len(p)-1]]++
			ns := s.stripe(p[0]).node(p[0])
			if ns == nil || !slices.Contains(ns.ownedSided[side], id) {
				return fmt.Errorf("walkstore: segment %d missing from sided owner index of node %d", id, p[0])
			}
		}
		ns := s.stripe(p[0]).node(p[0])
		if ns == nil || !slices.Contains(ns.owned, id) {
			return fmt.Errorf("walkstore: segment %d missing from owner index of node %d", id, p[0])
		}
	}
	if numLive != s.numLive {
		return fmt.Errorf("walkstore: numLive=%d want %d", s.numLive, numLive)
	}
	if live != s.liveNodes {
		return fmt.Errorf("walkstore: liveNodes=%d want %d", s.liveNodes, live)
	}
	if g.slots < live {
		return fmt.Errorf("walkstore: %d arena slots written for %d live", g.slots, live)
	}
	if got := s.totalVisits.Load(); got != total {
		return fmt.Errorf("walkstore: totalVisits=%d want %d", got, total)
	}

	// Per-stripe checks: residency (a node's state lives in the stripe and
	// slot its ID selects), counter exactness, and the stripe total shares
	// summing to the atomic globals.
	var stripeTotal, stripeEpochSum int64
	var stripeSided [2]int64
	nVisits, nTerminals := 0, 0
	var nSidedVisits, nSidedTerminals [2]int
	var nPending [pendingBuckets]int
	var nodeErr error
	for i := range s.stripes {
		st := &s.stripes[i]
		stripeTotal += st.totalVisits
		stripeEpochSum += st.epoch.Load()
		for d := 0; d < 2; d++ {
			stripeSided[d] += st.sidedTotals[d]
		}
		numNodes := 0
		st.each(i, func(v graph.NodeID, ns *nodeState) {
			numNodes++
			if nodeErr != nil {
				return
			}
			nodeErr = func() error {
				if stripeIndex(v) != i {
					return fmt.Errorf("walkstore: node %d state resident in stripe %d, want %d", v, i, stripeIndex(v))
				}
				if uint64(v) >= denseLimit {
					if _, ok := st.sparse[v]; !ok {
						return fmt.Errorf("walkstore: node %d outside dense range but not in sparse table", v)
					}
				}
				if ns.empty() {
					return fmt.Errorf("walkstore: drained node state retained for node %d", v)
				}
				if ns.visits != wantVisits[v] {
					return fmt.Errorf("walkstore: visits[%d]=%d want %d", v, ns.visits, wantVisits[v])
				}
				if ns.visits != 0 {
					nVisits++
				}
				// The pending buckets double as the inverted visitor index
				// (one entry per visit); their exact-set check subsumes a
				// separate per-segment multiplicity check.
				var pendingN int
				for b := 0; b < pendingBuckets; b++ {
					px := &ns.pending[b]
					if err := validatePosIndex(b, v, px, wantPending[b][v]); err != nil {
						return err
					}
					if len(px.ents) != 0 {
						nPending[b]++
					}
					pendingN += len(px.ents)
				}
				if int64(pendingN) != ns.visits {
					return fmt.Errorf("walkstore: node %d has %d pending entries for %d visits", v, pendingN, ns.visits)
				}
				if ns.terminals != wantTerminals[v] {
					return fmt.Errorf("walkstore: terminals[%d]=%d want %d", v, ns.terminals, wantTerminals[v])
				}
				if ns.terminals != 0 {
					nTerminals++
				}
				for d := 0; d < 2; d++ {
					if ns.sidedVisits[d] != wantSidedVisits[d][v] {
						return fmt.Errorf("walkstore: sidedVisits[%d][%d]=%d want %d", d, v, ns.sidedVisits[d], wantSidedVisits[d][v])
					}
					if ns.sidedVisits[d] != 0 {
						nSidedVisits[d]++
					}
					if ns.sidedTerminals[d] != wantSidedTerminals[d][v] {
						return fmt.Errorf("walkstore: sidedTerminals[%d][%d]=%d want %d", d, v, ns.sidedTerminals[d], wantSidedTerminals[d][v])
					}
					if ns.sidedTerminals[d] != 0 {
						nSidedTerminals[d]++
					}
				}
				return nil
			}()
		})
		if nodeErr != nil {
			return nodeErr
		}
		if numNodes != st.numNodes {
			return fmt.Errorf("walkstore: stripe %d tracks %d nodes, found %d", i, st.numNodes, numNodes)
		}
	}
	if nVisits != len(wantVisits) {
		return fmt.Errorf("walkstore: visit table has %d nodes, want %d", nVisits, len(wantVisits))
	}
	if nTerminals != len(wantTerminals) {
		return fmt.Errorf("walkstore: terminal table has %d nodes, want %d", nTerminals, len(wantTerminals))
	}
	if stripeTotal != total {
		return fmt.Errorf("walkstore: per-stripe visit shares sum to %d, want %d", stripeTotal, total)
	}
	// Per-stripe epoch cross-check: every mutating stripe acquisition bumps
	// its stripe's epoch and the global touch counter as a pair, so a
	// mutation path that forgot one of the bumps breaks this sum.
	if got := s.stripeTouches.Load(); stripeEpochSum != got {
		return fmt.Errorf("walkstore: per-stripe epochs sum to %d, want %d mutating stripe acquisitions", stripeEpochSum, got)
	}
	for d := 0; d < 2; d++ {
		if nSidedVisits[d] != len(wantSidedVisits[d]) {
			return fmt.Errorf("walkstore: sided visit table %d has %d nodes, want %d", d, nSidedVisits[d], len(wantSidedVisits[d]))
		}
		if nSidedTerminals[d] != len(wantSidedTerminals[d]) {
			return fmt.Errorf("walkstore: sided terminal table %d has %d nodes, want %d", d, nSidedTerminals[d], len(wantSidedTerminals[d]))
		}
		if stripeSided[d] != wantSidedTotals[d] {
			return fmt.Errorf("walkstore: per-stripe sided shares %d sum to %d, want %d", d, stripeSided[d], wantSidedTotals[d])
		}
		if got := s.sidedTotals[d].Load(); got != wantSidedTotals[d] {
			return fmt.Errorf("walkstore: sidedTotals[%d]=%d want %d", d, got, wantSidedTotals[d])
		}
	}
	for b := 0; b < pendingBuckets; b++ {
		if nPending[b] != len(wantPending[b]) {
			return fmt.Errorf("walkstore: pending index bucket %d has %d nodes, want %d", b, nPending[b], len(wantPending[b]))
		}
	}
	return nil
}

// ValidateSteps checks every stored step against the caller's edge
// predicate: step pos -> pos+1 of an unsided or forward-pending position must
// traverse an edge path[pos] -> path[pos+1] of the caller's graph, a
// backward-pending step the reverse edge. This is the deletion-path
// invariant — after any sequence of arrivals and deletions, no stored walk
// may traverse an edge that no longer exists (the reverse reroute rule
// resamples with probability 1 when the last copy of an edge goes away).
// Like Validate it requires quiescence and fails with ErrConcurrentMutation
// on a raced pass. O(total path length) plus one predicate call per step;
// for tests.
func (s *Store) ValidateSteps(hasEdge func(from, to graph.NodeID) bool) error {
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	for i := range s.stripes {
		s.stripes[i].mu.RLock()
		defer s.stripes[i].mu.RUnlock()
	}
	if n := s.mutators.Load(); n != 0 {
		return fmt.Errorf("%w: %d segment mutations in flight", ErrConcurrentMutation, n)
	}
	for i := 0; i < s.nsegs; i++ {
		r := s.refAt(SegmentID(i))
		if !r.live() {
			continue
		}
		p := s.pathOf(r)
		for pos := 0; pos < len(p)-1; pos++ {
			from, to := p[pos], p[pos+1]
			if r.side() >= 0 && r.side().PendingAt(pos) == SideBackward {
				from, to = to, from
			}
			if !hasEdge(from, to) {
				return fmt.Errorf("walkstore: segment %d step %d traverses missing edge %d->%d", i, pos, from, to)
			}
		}
	}
	return nil
}

// validatePosIndex checks one node's pending-position bucket: first the
// layout as found — the prefix length within the slice, the prefix strictly
// ascending and free of removal tags — then, with the write log folded in,
// the exact entry set against the full-path recount.
func validatePosIndex(b int, v graph.NodeID, px *posIndex, want map[PosHit]bool) error {
	if px.sorted < 0 || px.sorted > len(px.ents) {
		return fmt.Errorf("walkstore: pending[%d][%d] sorted prefix of %d words in a bucket of %d", b, v, px.sorted, len(px.ents))
	}
	for i, e := range px.ents[:px.sorted] {
		if h := unpackEntry(e); e&1 != 0 {
			return fmt.Errorf("walkstore: pending[%d][%d] has a removal tag inside the sorted prefix at (%d,%d)", b, v, h.Seg, h.Pos)
		} else if i > 0 && px.ents[i-1] >= e {
			return fmt.Errorf("walkstore: pending[%d][%d] not strictly sorted at (%d,%d)", b, v, h.Seg, h.Pos)
		}
	}
	hits := px.appendTo(nil)
	if len(hits) != len(want) {
		return fmt.Errorf("walkstore: pending[%d][%d] has %d entries, want %d", b, v, len(hits), len(want))
	}
	for _, h := range hits {
		if !want[h] {
			return fmt.Errorf("walkstore: pending[%d][%d] has stale entry (%d,%d)", b, v, h.Seg, h.Pos)
		}
	}
	return nil
}
