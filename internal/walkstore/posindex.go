package walkstore

import (
	"fmt"
	"slices"

	"fastppr/internal/graph"
)

// PosHit is one pending-position index entry: a stored segment and the path
// position at which it visits the indexed node. For a sided segment the entry
// lives in the bucket of the visit's pending step direction; unsided segments
// keep all their visit positions in one bucket. Hits sort by (Seg, Pos) —
// ascending segment ID, then ascending position — which is exactly the
// canonical candidate-enumeration order the maintainers' repair scans draw
// truncated-geometric first-switch indices over.
type PosHit struct {
	Seg SegmentID
	Pos int32
}

// pendingBuckets is the number of per-node position-index buckets: one per
// sided pending direction (indexed by Side) plus one for unsided segments.
const (
	unsidedBucket  = 2
	pendingBuckets = 3
)

// pendingBucket maps a visit's (segment side, path position) to its index
// bucket: the pending step direction for sided segments (side XOR position
// parity), the dedicated unsided bucket otherwise.
func pendingBucket(side Side, pos int) int {
	if side < 0 {
		return unsidedBucket
	}
	return int(side.PendingAt(pos))
}

// bucketOf maps the direction argument of the index read API to a bucket:
// SideForward/SideBackward address the sided pending-direction buckets,
// Unsided the unsided visit-position bucket.
func bucketOf(dir Side) int {
	if dir == Unsided {
		return unsidedBucket
	}
	mustDir(dir)
	return int(dir)
}

// packEntry encodes one index entry as seg<<32 | pos<<1. Numeric order of the
// packed word is exactly (seg, pos) lexicographic order, so a bucket sorts,
// searches, and moves single machine words; bit 0 is left for the write
// log's removal tag. Segment IDs are dense from 0 and positions are bounded
// by path length, so 32 and 31 bits are ample; the guards document the
// limits rather than silently corrupting past them.
func packEntry(seg SegmentID, pos int32) uint64 {
	if uint64(seg) >= 1<<32 {
		panic(fmt.Sprintf("walkstore: segment %d overflows the packed position index", seg))
	}
	if pos < 0 {
		panic(fmt.Sprintf("walkstore: position %d overflows the packed position index", pos))
	}
	return uint64(seg)<<32 | uint64(pos)<<1
}

func unpackEntry(e uint64) PosHit {
	return PosHit{Seg: SegmentID(e >> 32), Pos: int32(uint32(e) >> 1)}
}

// A bucket's write log is folded into its sorted prefix by the first reader,
// or by the writer that makes it logMin words long and a logFrac-th of the
// prefix: folding moves at most the whole prefix, so a bucket nobody reads
// pays at most logFrac words of merge traffic per write and carries at most
// max(logMin, prefix/logFrac) unfolded words. BenchmarkPosIndexWriteRead is
// the evidence (16/64/256 and 4/8/16 were tried — see docs/DESIGN.md §7).
const (
	logMin  = 64
	logFrac = 8
)

// posIndex is the pending-position set of one (node, bucket): the exact
// (segment, position) pairs where a stored visit to the node is pending a
// step in the bucket's direction. ents[:sorted] holds them as strictly
// ascending packed words — pointer-free, so the GC never scans it;
// ents[sorted:] is the write log, one word per add or remove not yet folded
// in, a remove carrying tag bit 0. A write is therefore one append wherever
// in the order its key falls, and the set is the prefix with the log applied
// in order. The zero value is an empty index.
type posIndex struct {
	ents   []uint64
	sorted int
}

// dirty reports whether a reader must merge first, under the write lock.
func (px posIndex) dirty() bool { return px.sorted < len(px.ents) }

func (px *posIndex) add(seg SegmentID, pos int32) {
	e := packEntry(seg, pos)
	// Fast path: fresh segments carry the largest ID yet, so bulk loads
	// append to a clean bucket and leave it clean.
	if n := len(px.ents); n == px.sorted && (n == 0 || px.ents[n-1] < e) {
		px.push(e)
		px.sorted++
		return
	}
	px.log(e)
}

func (px *posIndex) remove(seg SegmentID, pos int32) {
	e := packEntry(seg, pos)
	// Fast path: ReplaceTail unwinds a tail from its end, so the removed
	// entry is often the last word — the prefix's, or the add just logged.
	if n := len(px.ents); n > 0 && px.ents[n-1] == e {
		px.ents, px.sorted = px.ents[:n-1], min(px.sorted, n-1)
		if n == 1 {
			px.ents = nil
		}
		return
	}
	px.log(e | 1)
}

func (px *posIndex) log(w uint64) {
	px.push(w)
	if n := len(px.ents) - px.sorted; n >= logMin && n >= px.sorted/logFrac {
		px.merge()
	}
}

// push appends one word. Past 256 words a full bucket grows by a sixteenth
// (at least 256 words) rather than by append's quarter: a hub's slack is
// live heap for as long as the node is.
func (px *posIndex) push(w uint64) {
	if n := len(px.ents); n == cap(px.ents) && n >= 256 {
		px.ents = append(make([]uint64, 0, n+max(256, n/16)), px.ents...)
	}
	px.ents = append(px.ents, w)
}

// merge folds the write log into the prefix, in place: sort the log, cancel
// each key's add/remove pairs, close the prefix up over the removed entries
// in one forward pass, then open it for the added ones in one backward pass.
// It changes the representation, not the set, so it bumps no epoch; callers
// hold the node's stripe write lock. A key the log adds twice or adds while
// the prefix holds it, and a key it removes twice or removes while the
// prefix lacks it, panic here rather than at the write.
func (px *posIndex) merge() {
	n := px.sorted
	ents, log := px.ents[:n], px.ents[n:]
	if len(log) == 0 {
		return
	}
	slices.Sort(log)
	// A key's words now sit together, adds first: cancel them pairwise.
	k := 0
	for _, e := range log {
		if k > 0 && e&1 == 1 && log[k-1] == e-1 {
			k--
		} else {
			log[k] = e
			k++
		}
	}
	// One forward sweep over the survivors, ascending, finds every key's
	// place in the prefix and closes the prefix up over the removed entries;
	// the added ones move out with their places, because the backward pass
	// that opens the prefix for them writes over the log.
	var buf [logMin]placedAdd
	adds := buf[:0]
	c, r, w := 0, 0, 0 // search, read and write cursors
	for _, e := range log[:k] {
		i, found := slices.BinarySearch(ents[c:], e&^1)
		c += i
		switch h := unpackEntry(e); {
		case e&1 == 0 && (found || len(adds) > 0 && adds[len(adds)-1].e == e):
			panic(fmt.Sprintf("walkstore: duplicate pending position (%d,%d)", h.Seg, h.Pos))
		case e&1 == 0:
			adds = append(adds, placedAdd{e, c - (r - w)})
		case !found:
			panic(fmt.Sprintf("walkstore: removing absent pending position (%d,%d)", h.Seg, h.Pos))
		default:
			if w != r {
				copy(ents[w:], ents[r:c])
			}
			w += c - r
			c++
			r = c
		}
	}
	if w != r {
		copy(ents[w:], ents[r:])
	}
	n -= r - w
	ents = px.ents[:n+len(adds)]
	for j := len(adds) - 1; j >= 0; j-- {
		a := adds[j]
		copy(ents[a.at+j+1:], ents[a.at:n])
		ents[a.at+j] = a.e
		n = a.at
	}
	px.ents, px.sorted = ents, len(ents)
	if len(ents) == 0 { // release what a drained bucket no longer needs
		px.ents = nil
	} else if cap(ents) > 2*len(ents)+64 {
		px.ents = slices.Clone(ents)
	}
}

// placedAdd is a logged add and its index in the closed-up prefix.
type placedAdd struct {
	e  uint64
	at int
}

// appendTo folds the log and appends every entry to dst in (seg, pos)
// order: one linear sweep, no allocation given capacity in dst.
func (px *posIndex) appendTo(dst []PosHit) []PosHit {
	px.merge()
	n := len(dst)
	dst = slices.Grow(dst, len(px.ents))[:n+len(px.ents)]
	for i, e := range px.ents {
		dst[n+i] = unpackEntry(e)
	}
	return dst
}

// appendSegs folds the log and appends the bucket's distinct segment IDs to
// dst, ascending. Callers sort and deduplicate across buckets.
func (px *posIndex) appendSegs(dst []SegmentID) []SegmentID {
	px.merge()
	for _, e := range px.ents {
		if seg := SegmentID(e >> 32); len(dst) == 0 || dst[len(dst)-1] != seg {
			dst = append(dst, seg)
		}
	}
	return dst
}

// viewPending calls fn on v's node state with the write logs of buckets
// [lo, hi) folded in, so fn may enumerate them. Clean buckets — the common
// case: every read leaves its bucket clean — are served under the stripe's
// read lock; a dirty one makes the reader trade it for the write lock and
// merge, which is invisible to Epoch, StripeEpoch and the mutation log.
func (s *Store) viewPending(v graph.NodeID, lo, hi int, fn func(ns *nodeState)) {
	st := s.stripe(v)
	st.mu.RLock()
	unlock := st.mu.RUnlock
	if ns := st.node(v); ns != nil && slices.ContainsFunc(ns.pending[lo:hi], posIndex.dirty) {
		st.mu.RUnlock()
		st.mu.Lock()
		unlock = st.mu.Unlock
	}
	defer unlock()
	if ns := st.node(v); ns != nil { // looked up again: v may have drained between the locks
		fn(ns)
	}
}

// AppendPendingPositions appends the pending-position entries of (v, dir) to
// dst (reset first) and returns it sorted by (segment, position). For
// dir == SideForward or SideBackward the entries are exactly the stored
// sided visits to v whose pending step has direction dir, terminal visits
// included — so non-terminal entries count PendingCandidates(v, dir) and the
// entry at a segment's last position is a PendingTerminals(v, dir) member.
// For dir == Unsided they are every visit position of unsided segments at v
// (the PageRank repair enumeration). The copy is taken under v's counter
// stripe lock — its write lock when the bucket has unfolded writes. See
// docs/DESIGN.md#7-the-pending-position-index for how the maintainers freeze
// and consume this enumeration.
func (s *Store) AppendPendingPositions(dst []PosHit, v graph.NodeID, dir Side) []PosHit {
	b := bucketOf(dir)
	dst = dst[:0]
	s.viewPending(v, b, b+1, func(ns *nodeState) { dst = ns.pending[b].appendTo(dst) })
	return dst
}

// PendingPositions is AppendPendingPositions into a fresh slice.
func (s *Store) PendingPositions(v graph.NodeID, dir Side) []PosHit {
	return s.AppendPendingPositions(nil, v, dir)
}

// DistinctSegments appends the distinct segment IDs of hits — which must be
// sorted by (seg, pos), as AppendPendingPositions returns them — to dst
// (reset first), ascending. This is the segment set a repair phase freezes
// under its SegmentID stripe locks before consuming the hits.
func DistinctSegments(dst []SegmentID, hits []PosHit) []SegmentID {
	dst = dst[:0]
	for _, h := range hits {
		if len(dst) == 0 || dst[len(dst)-1] != h.Seg {
			dst = append(dst, h.Seg)
		}
	}
	return dst
}

// KeepSegments filters hits (sorted by segment) in place to the entries
// whose segment appears in segs (sorted ascending), returning the shortened
// slice. A repair phase applies it to the re-read index snapshot so the
// frozen enumeration never includes a segment it did not lock.
func KeepSegments(hits []PosHit, segs []SegmentID) []PosHit {
	out := hits[:0]
	j := 0
	for _, h := range hits {
		for j < len(segs) && segs[j] < h.Seg {
			j++
		}
		if j < len(segs) && segs[j] == h.Seg {
			out = append(out, h)
		}
	}
	return out
}
