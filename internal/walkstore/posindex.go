package walkstore

import (
	"cmp"
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

func comparePosHit(a, b PosHit) int {
	if c := cmp.Compare(a.Seg, b.Seg); c != 0 {
		return c
	}
	return cmp.Compare(a.Pos, b.Pos)
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

// packEntry encodes one index entry as seg<<32 | pos. Numeric order of the
// packed word is exactly (seg, pos) lexicographic order, so a bucket sorts,
// searches, and moves single machine words. Segment
// IDs are dense from 0 and positions are bounded by path length, so both
// comfortably fit 32 bits; the guard documents the limit rather than
// silently corrupting past it.
func packEntry(seg SegmentID, pos int32) uint64 {
	if uint64(seg) >= 1<<32 {
		panic(fmt.Sprintf("walkstore: segment %d overflows the packed position index", seg))
	}
	return uint64(seg)<<32 | uint64(uint32(pos))
}

func unpackEntry(e uint64) PosHit {
	return PosHit{Seg: SegmentID(e >> 32), Pos: int32(uint32(e))}
}

// chunkCap bounds one chunk of a pending-position bucket: 256 packed words,
// 2 KiB. An insert or delete memmoves at most one chunk, so the constant
// trades that memmove against directory length; BenchmarkPosIndex* is the
// evidence (128, 256 and 512 were tried — see docs/DESIGN.md §7).
const chunkCap = 256

// posIndex is the pending-position set of one (node, bucket): the exact
// (segment, position) pairs where a stored visit to the node is pending a
// step in the bucket's direction, as one ascending sequence of packed
// seg<<32|pos words cut into chunks of at most chunkCap. An ordinary node is
// the single chunk list — pointer-free (the GC never scans it),
// append-dominated (fresh segments carry the largest IDs), one short memmove
// on a mid-list insert. A bucket that outgrows one chunk moves its chunks
// into a chunkDir and comes back to a plain list when all but one of them
// have drained. The zero value is an empty index.
type posIndex struct {
	list []uint64  // the only chunk; nil while hub != nil
	hub  *chunkDir // two or more chunks
}

// chunkDir is a hub bucket's chunk directory. Every chunk is non-empty,
// sorted, at most chunkCap long, and ends below the next chunk's first word;
// firsts[i] == chunks[i][0] is the pointer-free copy the directory search
// runs over.
type chunkDir struct {
	firsts []uint64
	chunks [][]uint64
}

func (px *posIndex) len() (n int) {
	px.eachChunk(func(c []uint64) { n += len(c) })
	return n
}

func (px *posIndex) add(seg SegmentID, pos int32) {
	e := packEntry(seg, pos)
	if px.hub == nil {
		if len(px.list) < chunkCap {
			px.list = insertEntry(px.list, e)
			return
		}
		px.hub = &chunkDir{firsts: []uint64{px.list[0]}, chunks: [][]uint64{px.list}}
		px.list = nil
	}
	px.hub.add(e)
}

// remove drops one entry.
func (px *posIndex) remove(seg SegmentID, pos int32) {
	e := packEntry(seg, pos)
	if px.hub == nil {
		px.list = removeEntry(px.list, e)
		return
	}
	px.hub.remove(e)
	if len(px.hub.chunks) == 1 {
		px.list, px.hub = px.hub.chunks[0], nil
	}
}

// insertEntry inserts e into the sorted chunk c.
func insertEntry(c []uint64, e uint64) []uint64 {
	// Fast path: fresh segments carry the largest ID yet, so bulk loads and
	// reroute tails append at the end.
	if n := len(c); n == 0 || c[n-1] < e {
		return append(c, e)
	}
	i, found := slices.BinarySearch(c, e)
	if found {
		h := unpackEntry(e)
		panic(fmt.Sprintf("walkstore: duplicate pending position (%d,%d)", h.Seg, h.Pos))
	}
	return slices.Insert(c, i, e)
}

// removeEntry deletes e from the sorted chunk c.
func removeEntry(c []uint64, e uint64) []uint64 {
	// Fast path: ReplaceTail unwinds a tail from its end, so the removed
	// entry is often the last.
	if n := len(c); n > 0 && c[n-1] == e {
		return c[:n-1]
	}
	i, found := slices.BinarySearch(c, e)
	if !found {
		h := unpackEntry(e)
		panic(fmt.Sprintf("walkstore: removing absent pending position (%d,%d)", h.Seg, h.Pos))
	}
	return slices.Delete(c, i, i+1)
}

// find returns the index of the chunk whose range holds e: the last chunk
// starting at or below e, or chunk 0 when e sorts before everything.
func (d *chunkDir) find(e uint64) int {
	// Fast path: bulk loads append to, and tail unwinds remove from, the
	// last chunk.
	if last := len(d.firsts) - 1; d.firsts[last] <= e {
		return last
	}
	i, found := slices.BinarySearch(d.firsts, e)
	if found || i == 0 {
		return i
	}
	return i - 1
}

func (d *chunkDir) add(e uint64) {
	i := d.find(e)
	if c := d.chunks[i]; len(c) == chunkCap {
		if i == len(d.chunks)-1 && c[chunkCap-1] < e {
			// An append at the very end starts a fresh chunk instead of
			// halving, so bulk loads leave every chunk behind them full.
			d.insertChunk(i+1, append(make([]uint64, 0, chunkCap), e))
			return
		}
		right := append(make([]uint64, 0, chunkCap), c[chunkCap/2:]...)
		d.chunks[i] = c[:chunkCap/2]
		d.insertChunk(i+1, right)
		if right[0] <= e {
			i++
		}
	}
	d.chunks[i] = insertEntry(d.chunks[i], e)
	d.firsts[i] = d.chunks[i][0]
}

func (d *chunkDir) insertChunk(i int, c []uint64) {
	d.firsts = slices.Insert(d.firsts, i, c[0])
	d.chunks = slices.Insert(d.chunks, i, c)
}

func (d *chunkDir) remove(e uint64) {
	i := d.find(e)
	c := removeEntry(d.chunks[i], e)
	if len(c) == 0 {
		// An emptied chunk is freed, not kept for reuse.
		d.firsts = slices.Delete(d.firsts, i, i+1)
		d.chunks = slices.Delete(d.chunks, i, i+1)
		return
	}
	d.chunks[i], d.firsts[i] = c, c[0]
}

// eachChunk calls fn on every chunk in ascending order.
func (px *posIndex) eachChunk(fn func(c []uint64)) {
	if px.hub == nil {
		fn(px.list)
		return
	}
	for _, c := range px.hub.chunks {
		fn(c)
	}
}

// appendTo appends every entry to dst in (seg, pos) order: one linear sweep
// over the chunks, no sort and — given capacity in dst — no allocation.
func (px *posIndex) appendTo(dst []PosHit) []PosHit {
	px.eachChunk(func(c []uint64) { dst = appendHits(dst, c) })
	return dst
}

func appendHits(dst []PosHit, c []uint64) []PosHit {
	for _, e := range c {
		dst = append(dst, unpackEntry(e))
	}
	return dst
}

// appendSegs appends the bucket's distinct segment IDs to dst, ascending.
// Callers sort and deduplicate across buckets.
func (px *posIndex) appendSegs(dst []SegmentID) []SegmentID {
	px.eachChunk(func(c []uint64) { dst = appendDistinctSegs(dst, c) })
	return dst
}

func appendDistinctSegs(dst []SegmentID, c []uint64) []SegmentID {
	for _, e := range c {
		if seg := SegmentID(e >> 32); len(dst) == 0 || dst[len(dst)-1] != seg {
			dst = append(dst, seg)
		}
	}
	return dst
}

// AppendPendingPositions appends the pending-position entries of (v, dir) to
// dst (reset first) and returns it sorted by (segment, position). For
// dir == SideForward or SideBackward the entries are exactly the stored
// sided visits to v whose pending step has direction dir, terminal visits
// included — so non-terminal entries count PendingCandidates(v, dir) and the
// entry at a segment's last position is a PendingTerminals(v, dir) member.
// For dir == Unsided they are every visit position of unsided segments at v
// (the PageRank repair enumeration). The copy is taken under v's counter
// stripe lock. See docs/DESIGN.md#7-the-pending-position-index for how the
// maintainers freeze and consume this enumeration.
func (s *Store) AppendPendingPositions(dst []PosHit, v graph.NodeID, dir Side) []PosHit {
	b := bucketOf(dir)
	dst = dst[:0]
	st := s.stripe(v)
	st.mu.RLock()
	if ns := st.node(v); ns != nil {
		dst = ns.pending[b].appendTo(dst)
	}
	st.mu.RUnlock()
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
