package walkstore

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastppr/internal/graph"
)

// This file covers the chunked arena and the one-word segment table:
// segment reads that take no lock, paths that never straddle a chunk, arena
// generations, the ref packing's limits, and ReplaceTailBatch refusing a
// bad batch whole.

// TestSegmentReadsTakeNoLock holds segMu for writing — as a writer or
// Compact would — and requires Path, AppendPaths and SideOf to return
// anyway.
func TestSegmentReadsTakeNoLock(t *testing.T) {
	s := New()
	a := s.AddSided(path(1, 2, 3), SideForward)
	b := s.Add(path(4, 5))
	s.segMu.Lock()
	defer s.segMu.Unlock()
	done := make(chan error, 1)
	go func() {
		switch {
		case !slices.Equal(s.Path(a), path(1, 2, 3)):
			done <- fmt.Errorf("Path(%d) = %v", a, s.Path(a))
		case !reflect.DeepEqual(s.AppendPaths(nil, []SegmentID{b, a}), [][]graph.NodeID{path(4, 5), path(1, 2, 3)}):
			done <- fmt.Errorf("AppendPaths = %v", s.AppendPaths(nil, []SegmentID{b, a}))
		case s.SideOf(a) != SideForward || s.SideOf(b) != Unsided:
			done <- fmt.Errorf("SideOf = %d, %d", s.SideOf(a), s.SideOf(b))
		default:
			done <- nil
		}
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("segment reads blocked on segMu held for writing")
	}
}

// versionPath is segment seg's path at version ver: a fixed first node
// (what keep=1 preserves), then 1 + (seg+ver)%5 nodes that each name
// (seg, ver, position).
func versionPath(seg, ver int) []graph.NodeID {
	p := []graph.NodeID{graph.NodeID(seg << 40)}
	for pos := 1; pos <= 1+(seg+ver)%5; pos++ {
		p = append(p, graph.NodeID(seg<<40|ver<<8|pos))
	}
	return p
}

// checkVersionPath reports how p fails to be one whole version of segment
// seg no newer than maxVer.
func checkVersionPath(seg int, p []graph.NodeID, maxVer int64) error {
	if len(p) < 2 {
		return fmt.Errorf("segment %d read as %v", seg, p)
	}
	ver := int(p[1]>>8) & (1<<32 - 1)
	if int64(ver) > maxVer {
		return fmt.Errorf("segment %d read at version %d, newest written %d", seg, ver, maxVer)
	}
	if want := versionPath(seg, ver); !slices.Equal(p, want) {
		return fmt.Errorf("segment %d read as %v, not a whole version (version %d is %v)", seg, p, ver, want)
	}
	return nil
}

// TestLockFreeReadsSeeWholeVersions is the -race test of the lock-free read
// path: readers loop over random segments through Path, AppendPaths and
// SideOf while one writer runs ReplaceTailBatch and Compact back to back.
// Every node names its segment and version, so a reader that saw a torn
// path, a path from a reused chunk or a half-published ref would notice.
func TestLockFreeReadsSeeWholeVersions(t *testing.T) {
	const segs, readers = 48, 3
	rounds := 4000
	if testing.Short() {
		rounds = 1000
	}
	s := New()
	written := make([]atomic.Int64, segs) // newest version handed to the store
	for i := 0; i < segs; i++ {
		if id := s.AddSided(versionPath(i, 0), Side(i%2)); id != SegmentID(i) {
			t.Fatalf("segment %d stored as %d", i, id)
		}
	}
	stop := make(chan struct{})
	errs := make(chan error, readers)
	var wg, started sync.WaitGroup
	started.Add(readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(r), 11))
			var ids []SegmentID
			var paths [][]graph.NodeID
			for first := true; ; first = false {
				if !first {
					select {
					case <-stop:
						errs <- nil
						return
					default:
					}
				}
				ids = ids[:0]
				for k := 1 + rng.IntN(4); k > 0; k-- {
					ids = append(ids, SegmentID(rng.IntN(segs)))
				}
				paths = s.AppendPaths(paths, ids)
				paths = append(paths, s.Path(ids[0]))
				ids = append(ids, ids[0])
				for i, p := range paths {
					seg := int(ids[i])
					if err := checkVersionPath(seg, p, written[seg].Load()); err != nil {
						errs <- err
						return
					}
					if got := s.SideOf(ids[i]); got != Side(seg%2) {
						errs <- fmt.Errorf("SideOf(%d) = %d", seg, got)
						return
					}
				}
				if first {
					started.Done()
				}
			}
		}(r)
	}
	started.Wait()
	rng := rand.New(rand.NewPCG(5, 5))
	ver := make([]int, segs)
	var muts []TailMutation
	for round := 0; round < rounds; round++ {
		muts = muts[:0]
		for k := 1 + rng.IntN(6); k > 0; k-- {
			seg := rng.IntN(segs)
			ver[seg]++
			written[seg].Store(int64(ver[seg]))
			muts = append(muts, TailMutation{ID: SegmentID(seg), Keep: 1, NewTail: versionPath(seg, ver[seg])[1:]})
		}
		s.ReplaceTailBatch(muts)
		if round%3 == 0 {
			s.Compact()
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for seg := 0; seg < segs; seg++ {
		if got := s.Path(SegmentID(seg)); !slices.Equal(got, versionPath(seg, ver[seg])) {
			t.Fatalf("segment %d ends as %v, want version %d", seg, got, ver[seg])
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// chunksOf returns the current arena generation's chunk directory.
func chunksOf(s *Store) [][]graph.NodeID { return *s.arena.Load().chunks.Load() }

// seq returns n consecutive node IDs starting at from.
func seq(from, n int) []graph.NodeID {
	p := make([]graph.NodeID, n)
	for i := range p {
		p[i] = graph.NodeID(from + i)
	}
	return p
}

// TestPathsNeverStraddleChunks fills the first chunk exactly, then spills:
// a path that does not fit the last chunk's remainder starts a new chunk,
// and every earlier path and slice stays as it was.
func TestPathsNeverStraddleChunks(t *testing.T) {
	s := New()
	a := s.Add(seq(0, 200))
	b := s.Add(seq(1000, minChunkCap-200)) // fills chunk 0 to the last slot
	held := s.Path(b)
	c := s.Add(seq(2000, 1)) // one more node: a new chunk
	d := s.Add(seq(3000, 100))
	for _, w := range []struct {
		id         SegmentID
		chunk, off int
	}{{a, 0, 0}, {b, 0, 200}, {c, 1, 0}, {d, 1, 1}} {
		if r := s.refAt(w.id); r.chunk() != w.chunk || r.off() != w.off {
			t.Fatalf("segment %d at (chunk %d, offset %d), want (%d, %d)", w.id, r.chunk(), r.off(), w.chunk, w.off)
		}
	}
	if n := len(chunksOf(s)[0]); n != minChunkCap {
		t.Fatalf("first chunk holds %d slots, want %d", n, minChunkCap)
	}
	// A relocation that no longer fits chunk 1's remainder moves to chunk 2.
	s.ReplaceTail(d, 100, seq(4000, minChunkCap))
	if r := s.refAt(d); r.chunk() != 2 || r.off() != 0 {
		t.Fatalf("relocated segment at (chunk %d, offset %d), want (2, 0)", r.chunk(), r.off())
	}
	if !slices.Equal(held, seq(1000, minChunkCap-200)) || !slices.Equal(s.Path(a), seq(0, 200)) {
		t.Fatal("a path in a full chunk changed")
	}
	if live, total := s.ArenaStats(); live != 200+minChunkCap-200+1+100+minChunkCap || total != live+100 {
		t.Fatalf("ArenaStats = (%d, %d)", live, total)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPathLongerThanChunk stores, relocates and compacts a path longer than
// chunkCap: each copy gets a chunk of exactly its length.
func TestPathLongerThanChunk(t *testing.T) {
	s := New()
	small := s.Add(seq(0, 3))
	long := s.AddSided(seq(10, chunkCap+5), SideBackward)
	after := s.Add(seq(20, 2))
	dir := chunksOf(s)
	r := s.refAt(long)
	if r.chunk() != 1 || r.off() != 0 || r.n() != chunkCap+5 || len(dir[1]) != chunkCap+5 {
		t.Fatalf("long path at (chunk %d, offset %d, length %d) in a chunk of %d", r.chunk(), r.off(), r.n(), len(dir[1]))
	}
	if got := s.refAt(after).chunk(); got != 2 {
		t.Fatalf("path after the long one in chunk %d, want 2", got)
	}
	held := s.Path(long)
	s.ReplaceTail(long, chunkCap+5, path(7))
	if r := s.refAt(long); r.off() != 0 || len(chunksOf(s)[r.chunk()]) != chunkCap+6 {
		t.Fatalf("relocated long path at offset %d in a chunk of %d", r.off(), len(chunksOf(s)[r.chunk()]))
	}
	if !slices.Equal(held, seq(10, chunkCap+5)) {
		t.Fatal("held long path changed")
	}
	if _, reclaimed := s.Compact(); reclaimed != chunkCap+5 {
		t.Fatalf("Compact reclaimed %d, want %d", reclaimed, chunkCap+5)
	}
	if want := append(seq(10, chunkCap+5), 7); !slices.Equal(s.Path(long), want) {
		t.Fatal("long path changed across Compact")
	}
	if !slices.Equal(s.Path(small), seq(0, 3)) || !slices.Equal(s.Path(after), seq(20, 2)) {
		t.Fatal("short paths changed across Compact")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactStartsFreshGeneration checks that Compact swaps in a new arena
// generation that numbers its chunks from zero, and that a reader that
// loaded the old generation before the compaction still resolves its refs
// there.
func TestCompactStartsFreshGeneration(t *testing.T) {
	s := New()
	var ids []SegmentID
	for i := 0; i < 40; i++ {
		ids = append(ids, s.Add(seq(100*i, 1+i%7)))
	}
	for i := 0; i < 60; i++ {
		s.ReplaceTail(ids[i%20], 1, seq(5000+i, 200))
	}
	old := s.arena.Load()
	stale := old.refAt(ids[30])
	if n := len(*old.chunks.Load()); n < 3 {
		t.Fatalf("churn wrote %d chunks, want several", n)
	}
	live, reclaimed := s.Compact()
	if s.arena.Load() == old {
		t.Fatal("Compact did not swap the arena generation")
	}
	// The new generation's first chunk is sized to the live arena, so every
	// live path lands in chunk 0.
	if n := len(chunksOf(s)); n != 1 {
		t.Fatalf("compacted generation has %d chunks for %d live slots", n, live)
	}
	if _, total := s.ArenaStats(); total != live || reclaimed <= 0 {
		t.Fatalf("after Compact: %d slots for %d live, %d reclaimed", total, live, reclaimed)
	}
	if !slices.Equal(old.pathOf(stale), seq(3000, 1+30%7)) || !slices.Equal(old.pathOf(old.refAt(ids[0])), append(seq(0, 1), seq(5040, 200)...)) {
		t.Fatal("a ref of the old generation no longer resolves there")
	}
	if !slices.Equal(s.Path(ids[30]), seq(3000, 1+30%7)) {
		t.Fatal("Path after Compact")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestChunkIndicesDoNotGrowWithLifetime churns a small store through
// thousands of compactions, writing far more than its live size: every
// generation restarts its chunk indices, so the highest index in use stays
// that of one generation's churn, however long the store lives.
func TestChunkIndicesDoNotGrowWithLifetime(t *testing.T) {
	const segs, every = 20, 9
	rounds := 20000
	if testing.Short() {
		rounds = 4000
	}
	s := New()
	for i := 0; i < segs; i++ {
		s.Add(versionPath(i, 0))
	}
	rng := rand.New(rand.NewPCG(3, 3))
	ver := make([]int, segs)
	var written int64
	compactions, highest := 0, 0
	for round := 1; round <= rounds; round++ {
		seg := rng.IntN(segs)
		ver[seg]++
		tail := versionPath(seg, ver[seg])[1:]
		s.ReplaceTail(SegmentID(seg), 1, tail)
		written += int64(1 + len(tail))
		highest = max(highest, s.refAt(SegmentID(seg)).chunk())
		if round%every == 0 {
			if _, reclaimed := s.Compact(); reclaimed > 0 {
				compactions++
			}
		}
	}
	live, _ := s.ArenaStats()
	if written < 100*live || compactions < rounds/every/2 {
		t.Fatalf("wrote %d slots over %d live in %d compactions: churn too light to show anything", written, live, compactions)
	}
	if highest > 1 {
		t.Fatalf("chunk index reached %d after %d compactions; a generation of %d live slots needs at most 2 chunks", highest, compactions, live)
	}
	for seg := 0; seg < segs; seg++ {
		if got := s.Path(SegmentID(seg)); !slices.Equal(got, versionPath(seg, ver[seg])) {
			t.Fatalf("segment %d ends as %v, want version %d", seg, got, ver[seg])
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSegRefPacking round-trips the packed ref at its field limits, long
// paths included, and pins the overflow guard, which panics as packEntry's
// does.
func TestSegRefPacking(t *testing.T) {
	for _, c := range []struct{ chunk, off, n int }{
		{0, 0, 1}, {1<<refChunkBits - 1, chunkCap - 1, 1}, {7, 0, chunkCap}, {5, 17, 3},
		{3, 0, chunkCap + 1}, {1<<refChunkBits - 1, 0, maxSegLen},
	} {
		for _, side := range []Side{Unsided, SideForward, SideBackward} {
			r := packRef(c.chunk, c.off, c.n, side)
			if !r.live() || r.chunk() != c.chunk || r.off() != c.off || r.n() != c.n || r.side() != side || r.long() != (c.n > chunkCap) {
				t.Fatalf("%+v side %d packs to %#x, unpacks to (%d, %d, %d, %d, live %v)",
					c, side, uint64(r), r.chunk(), r.off(), r.n(), r.side(), r.live())
			}
		}
	}
	if segRef(0).live() {
		t.Fatal("the zero word reads as live")
	}
	mustPanic(t, "length maxSegLen+1", func() { packRef(0, 0, maxSegLen+1, Unsided) })
	mustPanic(t, "chunk 1<<refChunkBits", func() { packRef(1<<refChunkBits, 0, 1, Unsided) })
	mustPanic(t, "tail past maxSegLen", func() { checkTail(3, 3, maxSegLen) })
}

// TestReplaceTailBatchRefusesWholeBatch: a batch with a bad entry panics
// before any entry is applied or journaled — nothing relocated, nothing in
// flight, the dump unchanged — and entries on one segment are checked
// against the lengths its earlier entries leave.
func TestReplaceTailBatchRefusesWholeBatch(t *testing.T) {
	s := New()
	rec := &recordingLog{t: t, s: s}
	a := s.AddSided(path(1, 2, 3), SideForward)
	b := s.Add(path(4, 5))
	s.SetMutationLog(rec)
	for _, bad := range []struct {
		name string
		muts []TailMutation
	}{
		{"later entry out of range", []TailMutation{{ID: a, Keep: 1, NewTail: path(9)}, {ID: b, Keep: 7}}},
		{"same segment, shortened first", []TailMutation{{ID: a, Keep: 1, NewTail: path(9)}, {ID: a, Keep: 3}}},
		{"unknown segment", []TailMutation{{ID: a, Keep: 2}, {ID: b, Keep: 1, NewTail: path(8)}, {ID: 99, Keep: 1}}},
	} {
		want, err := s.Dump()
		if err != nil {
			t.Fatal(err)
		}
		mustPanic(t, bad.name, func() { s.ReplaceTailBatch(bad.muts) })
		if n := s.mutators.Load(); n != 0 {
			t.Fatalf("%s: %d mutations left in flight", bad.name, n)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", bad.name, err)
		}
		got, err := s.Dump()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: store changed:\n got %+v\nwant %+v", bad.name, got, want)
		}
		if len(rec.events) != 0 {
			t.Fatalf("%s: journaled %d records", bad.name, len(rec.events))
		}
	}
	// An entry valid only after its segment's earlier entry grows it.
	s.ReplaceTailBatch([]TailMutation{{ID: a, Keep: 1, NewTail: path(9, 9, 9)}, {ID: a, Keep: 4, NewTail: path(6)}})
	if got := s.Path(a); !slices.Equal(got, path(1, 9, 9, 9, 6)) {
		t.Fatalf("Path(a) = %v", got)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
