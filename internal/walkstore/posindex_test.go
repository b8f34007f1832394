package walkstore

import (
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"

	"fastppr/internal/graph"
)

// brutePending recomputes one (node, dir) pending-position bucket from the
// stored paths: the full-path enumeration the index replaces.
func brutePending(s *Store, live []SegmentID, v graph.NodeID, dir Side) []PosHit {
	var want []PosHit
	ids := append([]SegmentID(nil), live...)
	slices.Sort(ids)
	for _, id := range ids {
		side := s.SideOf(id)
		for pos, x := range s.Path(id) {
			if x != v {
				continue
			}
			if pendingBucket(side, pos) == bucketOf(dir) {
				want = append(want, PosHit{Seg: id, Pos: int32(pos)})
			}
		}
	}
	return want
}

// TestPendingPositionsBruteForce drives randomized Add/AddSided/AddBatch/
// ReplaceTail/Remove churn over a small node space (so every bucket is hit
// by interleaved adds and removes) and cross-checks every bucket of every
// node against the full-path enumeration after every eighth mutation — the
// seven unread ones in between are what lets write logs build up — with
// periodic full Validates.
func TestPendingPositionsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 0))
	s := New()
	var live []SegmentID
	const nodeSpace = 12
	randPath := func() []graph.NodeID {
		p := make([]graph.NodeID, 1+rng.IntN(6))
		for i := range p {
			p[i] = graph.NodeID(rng.IntN(nodeSpace))
		}
		return p
	}
	sides := []Side{Unsided, SideForward, SideBackward}
	ops := 1500
	if testing.Short() {
		ops = 400
	}
	for op := 0; op < ops; op++ {
		switch k := rng.IntN(10); {
		case k < 3 || len(live) == 0:
			live = append(live, s.AddSided(randPath(), sides[rng.IntN(3)]))
		case k < 4:
			batch := make([][]graph.NodeID, 1+rng.IntN(4))
			for i := range batch {
				batch[i] = randPath()
			}
			live = append(live, s.AddBatchSided(batch, sides[rng.IntN(3)])...)
		case k < 8:
			id := live[rng.IntN(len(live))]
			n := len(s.Path(id))
			var tail []graph.NodeID
			if rng.IntN(4) > 0 {
				tail = randPath()
			}
			s.ReplaceTail(id, 1+rng.IntN(n), tail)
		default:
			i := rng.IntN(len(live))
			s.Remove(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for v := 0; v < nodeSpace && op%8 == 0; v++ {
			for _, dir := range sides {
				got := s.PendingPositions(graph.NodeID(v), dir)
				want := brutePending(s, live, graph.NodeID(v), dir)
				if !slices.Equal(got, want) {
					t.Fatalf("op %d node %d dir %d:\ngot  %v\nwant %v", op, v, dir, got, want)
				}
			}
		}
		if op%100 == 0 {
			if err := s.Validate(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// len folds the log and returns the number of entries.
func (px *posIndex) len() int {
	px.merge()
	return len(px.ents)
}

// requirePosIndex checks px against the sorted model: same enumeration, same
// distinct segments, and every structural invariant Validate enforces.
func requirePosIndex(t testing.TB, px *posIndex, model []uint64) {
	t.Helper()
	want := make(map[PosHit]bool, len(model))
	var hits []PosHit
	for _, e := range model {
		hits = append(hits, unpackEntry(e))
		want[unpackEntry(e)] = true
	}
	if got := px.appendTo(nil); !slices.Equal(got, hits) {
		t.Fatalf("enumeration diverged from model:\ngot  %v\nwant %v", got, hits)
	}
	if got, want := px.appendSegs(nil), DistinctSegments(nil, hits); !slices.Equal(got, want) {
		t.Fatalf("appendSegs=%v want %v", got, want)
	}
	if err := validatePosIndex(0, 0, px, want); err != nil {
		t.Fatal(err)
	}
}

// midKeys returns n distinct keys under even segments ascending from 2, and
// the model holding them: every odd segment is then a mid-bucket key.
func midKeys(n int) (px posIndex, model []uint64) {
	for i := 1; i <= n; i++ {
		px.add(SegmentID(2*i), 0)
		model = append(model, packEntry(SegmentID(2*i), 0))
	}
	return px, model
}

// TestPosIndexLog pins the write log case by case: what a write leaves
// behind, what the merge makes of it, and when the merge runs unasked.
func TestPosIndexLog(t *testing.T) {
	t.Run("ascending appends stay clean and unwind", func(t *testing.T) {
		px, model := midKeys(10)
		if px.dirty() || px.sorted != 10 {
			t.Fatalf("ascending adds left sorted=%d of %d", px.sorted, len(px.ents))
		}
		px.remove(20, 0)
		if px.dirty() || len(px.ents) != 9 {
			t.Fatalf("removing the last entry left sorted=%d of %d", px.sorted, len(px.ents))
		}
		requirePosIndex(t, &px, model[:9])
	})
	t.Run("add then remove inside one log", func(t *testing.T) {
		px, model := midKeys(10)
		px.add(5, 0)
		px.add(7, 1)
		px.remove(5, 0) // not the last word: logged, then cancelled by the merge
		if got := len(px.ents) - px.sorted; got != 3 {
			t.Fatalf("log holds %d words, want 3", got)
		}
		model = slices.Insert(model, 3, packEntry(7, 1))
		requirePosIndex(t, &px, model)
		px.add(9, 0)
		px.remove(9, 0) // the last word: unwound at once
		if got := len(px.ents) - px.sorted; got != 0 {
			t.Fatalf("add and immediate remove left %d log words", got)
		}
	})
	t.Run("remove then re-add inside one log", func(t *testing.T) {
		px, model := midKeys(10)
		px.remove(6, 0)
		px.remove(8, 0)
		px.add(6, 0)
		px.add(8, 0)
		px.remove(6, 0)
		if got := len(px.ents) - px.sorted; got != 5 {
			t.Fatalf("log holds %d words, want 5", got)
		}
		requirePosIndex(t, &px, slices.Delete(model, 2, 3)) // 8 is back, 6 is not
	})
	t.Run("threshold merge", func(t *testing.T) {
		// Small prefix: the merge waits for logMin words.
		px, model := midKeys(100)
		for i := 0; i < logMin; i++ {
			if got := len(px.ents) - px.sorted; got != i {
				t.Fatalf("before write %d the log holds %d words", i, got)
			}
			px.add(SegmentID(2*i+1), 0)
			model = append(model, packEntry(SegmentID(2*i+1), 0))
		}
		if px.dirty() || len(px.ents) != 100+logMin {
			t.Fatalf("write %d did not merge: sorted=%d of %d", logMin, px.sorted, len(px.ents))
		}
		slices.Sort(model)
		requirePosIndex(t, &px, model)
		// Large prefix: it waits for a logFrac-th of the prefix.
		const n = 4 * logMin * logFrac
		px, _ = midKeys(n)
		for i := 0; i < n/logFrac-1; i++ {
			px.remove(SegmentID(2*i+2), 0)
		}
		if got := len(px.ents) - px.sorted; got != n/logFrac-1 {
			t.Fatalf("log holds %d words, want %d unmerged", got, n/logFrac-1)
		}
		px.remove(SegmentID(2*n-2), 0)
		if px.dirty() || len(px.ents) != n-n/logFrac {
			t.Fatalf("write %d did not merge: sorted=%d of %d", n/logFrac, px.sorted, len(px.ents))
		}
	})
	t.Run("drain to empty", func(t *testing.T) {
		px, _ := midKeys(1000)
		for i := 1; i <= 1000; i++ {
			px.remove(SegmentID(2*i), 0) // front to back: never the last word
			if c := cap(px.ents); px.sorted == len(px.ents) && c > 2*len(px.ents)+64 {
				t.Fatalf("merged down to %d entries but kept capacity %d", len(px.ents), c)
			}
		}
		if px.len() != 0 || px.ents != nil {
			t.Fatalf("drained bucket keeps %d words, capacity %d", len(px.ents), cap(px.ents))
		}
		requirePosIndex(t, &px, nil)
	})
	for _, tc := range []struct {
		name, want string
		write      func(px *posIndex)
	}{
		{"duplicate add of a merged entry", "duplicate pending position (6,0)", func(px *posIndex) { px.add(6, 0) }},
		{"duplicate add inside one log", "duplicate pending position (5,0)", func(px *posIndex) { px.add(5, 0); px.add(3, 0); px.add(5, 0) }},
		{"absent remove", "removing absent pending position (5,0)", func(px *posIndex) { px.remove(5, 0) }},
		{"double remove inside one log", "removing absent pending position (6,0)", func(px *posIndex) { px.remove(6, 0); px.remove(4, 0); px.remove(6, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			px, _ := midKeys(10)
			tc.write(&px) // logged, not checked
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), tc.want) {
					t.Fatalf("merge panicked with %v, want %q", r, tc.want)
				}
			}()
			px.merge()
		})
	}
}

// TestPosIndexGrowth pins the capacity policy at both ends: a bulk-loaded
// hub carries at most a sixteenth of slack, not append's quarter.
func TestPosIndexGrowth(t *testing.T) {
	var px posIndex
	for i := 0; i < 100<<10; i++ {
		px.add(SegmentID(i), 0)
		if n, c := len(px.ents), cap(px.ents); n > 512 && c > n+max(256, n/16)+64 {
			t.Fatalf("%d entries hold capacity %d", n, c)
		}
	}
	if px.dirty() {
		t.Fatal("ascending bulk load left a write log")
	}
}

// TestPackEntryGuards pins the packed word's limits: 32 bits of segment, 31
// of position, bit 0 kept for the log's tag.
func TestPackEntryGuards(t *testing.T) {
	for _, h := range []PosHit{{0, 0}, {1<<32 - 1, math.MaxInt32}, {7, 1}} {
		if e := packEntry(h.Seg, h.Pos); e&1 != 0 || unpackEntry(e) != h || unpackEntry(e|1) != h {
			t.Fatalf("(%d,%d) packs to %#x, unpacks to %v", h.Seg, h.Pos, e, unpackEntry(e))
		}
	}
	if packEntry(3, 9) >= packEntry(3, 10) || packEntry(3, math.MaxInt32) >= packEntry(4, 0) {
		t.Fatal("packed order is not (seg, pos) order")
	}
	mustPanic(t, "segment 1<<32", func() { packEntry(1<<32, 0) })
	mustPanic(t, "negative segment", func() { packEntry(-1, 0) })
	mustPanic(t, "position -1", func() { packEntry(0, -1) })
	big := 1 << 31
	mustPanic(t, "position 1<<31", func() { packEntry(0, int32(big)) })
}

// runPosIndexOps interprets data as a sequence of three-byte operations
// (kind, a, b) applied both to a posIndex and to a plain sorted slice, and
// compares the two after every operation. It is the body of FuzzPosIndex and
// of the fixed-seed interleaving test.
//
//	kind%5 == 0  add (seg a, pos b) unless present
//	kind%5 == 1  remove the model's entry at index (a<<8|b) mod len
//	kind%5 == 2  append a run of b+1 entries under a fresh largest segment
//	kind%5 == 3  add the successor of the entry at index (a<<8|b) mod len
//	kind%5 == 4  drain b+1 consecutive entries starting a/256 of the way in
//
// A kind with bit 3 set withholds the read that otherwise follows every
// operation — a read merges, so only withheld reads let a write log build
// up, cancel pairs and reach the merge threshold. A kind of 0xf0 or above
// runs the full structural check (and with it a read) regardless.
func runPosIndexOps(t testing.TB, data []byte) {
	var px posIndex
	var model []uint64
	add := func(e uint64) {
		i, found := slices.BinarySearch(model, e)
		if found {
			return
		}
		model = slices.Insert(model, i, e)
		h := unpackEntry(e)
		px.add(h.Seg, h.Pos)
	}
	removeAt := func(i int) {
		h := unpackEntry(model[i])
		model = slices.Delete(model, i, i+1)
		px.remove(h.Seg, h.Pos)
	}
	var hits []PosHit
	for ; len(data) >= 3; data = data[3:] {
		kind, a, b := data[0], int(data[1]), int(data[2])
		switch kind % 5 {
		case 0:
			add(packEntry(SegmentID(a), int32(b)))
		case 1:
			if len(model) > 0 {
				removeAt((a<<8 | b) % len(model))
			}
		case 2:
			seg := SegmentID(0)
			if len(model) > 0 {
				seg = unpackEntry(model[len(model)-1]).Seg + 1
			}
			for pos := 0; pos <= b; pos++ {
				add(packEntry(seg, int32(pos)))
			}
		case 3:
			if len(model) > 0 {
				if h := unpackEntry(model[(a<<8|b)%len(model)]); h.Pos != math.MaxInt32 {
					add(packEntry(h.Seg, h.Pos+1))
				}
			}
		case 4:
			lo := a * len(model) / 256
			drained := slices.Clone(model[lo:min(lo+b+1, len(model))])
			model = slices.Delete(model, lo, lo+len(drained))
			for _, e := range drained {
				px.remove(unpackEntry(e).Seg, unpackEntry(e).Pos)
			}
		}
		if kind >= 0xf0 {
			requirePosIndex(t, &px, model)
		}
		if kind&8 != 0 {
			continue
		}
		if px.len() != len(model) {
			t.Fatalf("index holds %d entries, model %d", px.len(), len(model))
		}
		hits = px.appendTo(hits[:0])
		for i, h := range hits {
			if h != unpackEntry(model[i]) {
				t.Fatalf("entry %d is (%d,%d), model says (%d,%d)", i, h.Seg, h.Pos, unpackEntry(model[i]).Seg, unpackEntry(model[i]).Pos)
			}
		}
	}
	requirePosIndex(t, &px, model)
}

// TestPosIndexInterleavedAgainstModel drives a long fixed-seed mix of every
// operation kind, half of them with the read withheld — the bucket grows to
// some fourteen thousand entries, with write logs of every length up to the
// merge threshold — against the sorted-slice model.
func TestPosIndexInterleavedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 0))
	data := make([]byte, 3*4000)
	for i := range data {
		data[i] = byte(rng.IntN(256))
	}
	runPosIndexOps(t, data)
}

// FuzzPosIndex lets the Go fuzzer mutate the operation sequence; the seed
// corpus under testdata/fuzz/FuzzPosIndex covers bulk load, range drains,
// and write logs that are read early, cancel in place or run into the merge
// threshold.
func FuzzPosIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 3, 1, 0, 0})
	f.Add([]byte{2, 0, 255, 2, 0, 255, 3, 0, 7, 0xf4, 0, 255})
	f.Add([]byte{2, 0, 99, 8, 1, 1, 8, 1, 2, 9, 0, 100, 13, 0, 0, 0xf8, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every operation is checked with a full enumeration, so an input's
		// cost is quadratic in its length; 512 operations reach 500 chunks.
		runPosIndexOps(t, data[:min(len(data), 3*512)])
	})
}

// TestValidateRejectsCorruptBucket hand-corrupts a bucket in each way the
// prefix-plus-log layout can go wrong and requires Validate to name the
// damage — before it folds the log, which would trust the layout.
func TestValidateRejectsCorruptBucket(t *testing.T) {
	const hub = graph.NodeID(9)
	for _, tc := range []struct {
		name, want string
		corrupt    func(px *posIndex)
	}{
		{"unsorted prefix", "not strictly sorted at (40,0)", func(px *posIndex) { px.ents[40], px.ents[41] = px.ents[41], px.ents[40] }},
		{"repeated entry", "not strictly sorted at (40,0)", func(px *posIndex) { px.ents[41] = px.ents[40] }},
		{"prefix length past len", "sorted prefix of 101 words in a bucket of 100", func(px *posIndex) { px.sorted++ }},
		{"tagged word inside the prefix", "removal tag inside the sorted prefix at (7,0)", func(px *posIndex) { px.ents[7] |= 1 }},
		{"log word counted into the prefix", "removal tag inside the sorted prefix at (3,0)", func(px *posIndex) {
			px.remove(3, 0)
			px.sorted++
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			for i := 0; i < 100; i++ {
				s.Add([]graph.NodeID{hub, graph.NodeID(100 + i)})
			}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(&s.stripe(hub).node(hub).pending[unsidedBucket])
			if err := s.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestDistinctSegmentsAndKeepSegments pins the two hit-list helpers the
// repair phases' freeze protocol is built on.
func TestDistinctSegmentsAndKeepSegments(t *testing.T) {
	hits := []PosHit{{2, 0}, {2, 3}, {5, 1}, {9, 0}, {9, 2}, {9, 4}}
	segs := DistinctSegments(nil, hits)
	if !slices.Equal(segs, []SegmentID{2, 5, 9}) {
		t.Fatalf("DistinctSegments=%v", segs)
	}
	kept := KeepSegments(slices.Clone(hits), []SegmentID{2, 9})
	want := []PosHit{{2, 0}, {2, 3}, {9, 0}, {9, 2}, {9, 4}}
	if !slices.Equal(kept, want) {
		t.Fatalf("KeepSegments=%v want %v", kept, want)
	}
	if got := KeepSegments(slices.Clone(hits), nil); len(got) != 0 {
		t.Fatalf("KeepSegments with no segs=%v", got)
	}
}

// TestMutationInFlightCounter pins the mechanism behind Validate's
// ErrConcurrentMutation guard: every MutationLog call fires strictly inside
// its mutation's in-flight window (recordingLog checks the count is non-zero
// in each call), and the count must drain back to zero (Validate clean) once
// the mutation returns.
func TestMutationInFlightCounter(t *testing.T) {
	s := New()
	rec := &recordingLog{t: t, s: s}
	s.SetMutationLog(rec)
	id := s.Add(path(1, 2, 3))
	s.ReplaceTail(id, 1, path(4))
	s.ReplaceTailBatch([]TailMutation{{ID: id, Keep: 2, NewTail: path(5)}, {ID: id, Keep: 1}})
	s.Remove(id)
	if len(rec.events) != 5 {
		t.Fatalf("mutation log saw %d calls, want 5", len(rec.events))
	}
	if got := s.mutators.Load(); got != 0 {
		t.Fatalf("in-flight count %d after mutations returned", got)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentIndexReadersAndMutators is the -race stress for the
// pending-position index: writers churn disjoint sided segment sets (the
// external per-segment serialization contract) while readers snapshot index
// buckets and chase the returned hits into Path reads, mimicking the
// maintainers' probe step racing a parallel storm. Ends in a full Validate
// (including the index cross-check).
func TestConcurrentIndexReadersAndMutators(t *testing.T) {
	const (
		writers   = 4
		nodeSpace = 64
	)
	iters := 400
	if testing.Short() {
		iters = 150
	}
	s := New()
	owned := make([][]SegmentID, writers)
	for w := 0; w < writers; w++ {
		for i := 0; i < 30; i++ {
			side := Side(i % 2)
			owned[w] = append(owned[w], s.AddSided(
				[]graph.NodeID{graph.NodeID(w*16 + i%16), graph.NodeID(i % nodeSpace), graph.NodeID(w)}, side))
		}
	}
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 5))
			for it := 0; it < iters; it++ {
				id := owned[w][rng.IntN(len(owned[w]))]
				n := len(s.Path(id))
				tail := make([]graph.NodeID, rng.IntN(4))
				for j := range tail {
					tail[j] = graph.NodeID(rng.IntN(nodeSpace))
				}
				s.ReplaceTail(id, 1+rng.IntN(n), tail)
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rng := rand.New(rand.NewPCG(uint64(r), 6))
			var hits []PosHit
			var segs []SegmentID
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := graph.NodeID(rng.IntN(nodeSpace))
				dir := Side(rng.IntN(2))
				hits = s.AppendPendingPositions(hits[:0], v, dir)
				segs = DistinctSegments(segs, hits)
				for _, id := range segs {
					if len(s.Path(id)) == 0 {
						t.Error("empty path observed")
						return
					}
				}
				_ = s.PendingVisits(v, dir)
			}
		}(r)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
