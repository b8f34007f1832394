package walkstore

import (
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
// by interleaved adds and removes) and cross-checks every bucket of every touched node against the full-path
// enumeration after each mutation, with periodic full Validates.
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
		for v := 0; v < nodeSpace; v++ {
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

// chunkLens returns the lengths of px's chunks in order (the single list
// counts as one chunk).
func chunkLens(px *posIndex) []int {
	var lens []int
	px.eachChunk(func(c []uint64) { lens = append(lens, len(c)) })
	return lens
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

// TestPosIndexSplitAtCapacity pins the promotion: a bucket is one plain list
// up to exactly chunkCap entries, and the next mid-list insert halves it into
// a two-chunk directory.
func TestPosIndexSplitAtCapacity(t *testing.T) {
	var px posIndex
	var model []uint64
	// Even segments descending, so every add is a front insert and none takes
	// the append fast path.
	for i := chunkCap; i > 0; i-- {
		px.add(SegmentID(2*i), 0)
		model = append(model, packEntry(SegmentID(2*i), 0))
	}
	slices.Sort(model)
	if px.hub != nil || len(px.list) != chunkCap {
		t.Fatalf("at capacity: hub=%v, list has %d entries, want one chunk of %d", px.hub != nil, len(px.list), chunkCap)
	}
	requirePosIndex(t, &px, model)
	px.add(SegmentID(chunkCap+3), 0) // odd: lands mid-list, just right of the split point
	model = append(model, packEntry(SegmentID(chunkCap+3), 0))
	slices.Sort(model)
	if got, want := chunkLens(&px), []int{chunkCap / 2, chunkCap/2 + 1}; px.hub == nil || !slices.Equal(got, want) {
		t.Fatalf("past capacity: chunk lengths %v, want %v", got, want)
	}
	requirePosIndex(t, &px, model)
}

// TestPosIndexAppendOverflowKeepsChunksFull pins the bulk-load rule: an
// append past the end of a full last chunk starts a fresh chunk instead of
// halving, so every chunk behind the last stays full.
func TestPosIndexAppendOverflowKeepsChunksFull(t *testing.T) {
	var px posIndex
	var model []uint64
	for i := 0; i < 3*chunkCap+1; i++ {
		px.add(SegmentID(i/4), int32(i%4))
		model = append(model, packEntry(SegmentID(i/4), int32(i%4)))
	}
	if got, want := chunkLens(&px), []int{chunkCap, chunkCap, chunkCap, 1}; !slices.Equal(got, want) {
		t.Fatalf("chunk lengths %v, want %v", got, want)
	}
	requirePosIndex(t, &px, model)
}

// TestPosIndexDrainCollapses pins the way back down: a chunk whose last
// entry goes is removed from the directory, the directory collapses to a
// plain list when one chunk is left, and the bucket ends empty.
func TestPosIndexDrainCollapses(t *testing.T) {
	var px posIndex
	var model []uint64
	for i := 0; i < 3*chunkCap; i++ {
		px.add(SegmentID(i), 0)
		model = append(model, packEntry(SegmentID(i), 0))
	}
	drain := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			px.remove(SegmentID(i), 0)
		}
	}
	drain(chunkCap, 2*chunkCap) // the middle chunk, front to back
	model = slices.Delete(model, chunkCap, 2*chunkCap)
	if got, want := chunkLens(&px), []int{chunkCap, chunkCap}; px.hub == nil || !slices.Equal(got, want) {
		t.Fatalf("middle chunk drained: chunk lengths %v, want %v", got, want)
	}
	requirePosIndex(t, &px, model)
	drain(0, chunkCap)
	model = model[chunkCap:]
	if px.hub != nil || len(px.list) != chunkCap {
		t.Fatalf("one chunk left: hub=%v, list has %d entries, want a plain list of %d", px.hub != nil, len(px.list), chunkCap)
	}
	requirePosIndex(t, &px, model)
	drain(2*chunkCap, 3*chunkCap)
	if px.hub != nil || px.len() != 0 {
		t.Fatalf("drained bucket holds %d entries", px.len())
	}
	requirePosIndex(t, &px, nil)
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
// A kind of 0xf0 or above also runs the full structural check.
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
				if e := model[(a<<8|b)%len(model)]; uint32(e) != 1<<31-1 {
					add(e + 1)
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
		if px.len() != len(model) {
			t.Fatalf("index holds %d entries, model %d", px.len(), len(model))
		}
		hits = px.appendTo(hits[:0])
		for i, h := range hits {
			if h != unpackEntry(model[i]) {
				t.Fatalf("entry %d is (%d,%d), model says (%d,%d)", i, h.Seg, h.Pos, unpackEntry(model[i]).Seg, unpackEntry(model[i]).Pos)
			}
		}
		if kind >= 0xf0 {
			requirePosIndex(t, &px, model)
		}
	}
	requirePosIndex(t, &px, model)
}

// TestPosIndexInterleavedAgainstModel drives a long fixed-seed mix of every
// operation kind — the bucket grows to some fourteen thousand entries over
// more than a hundred chunks, range drains leaving many of them sparse —
// against the sorted-slice model.
func TestPosIndexInterleavedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 0))
	data := make([]byte, 3*4000)
	for i := range data {
		data[i] = byte(rng.IntN(256))
	}
	runPosIndexOps(t, data)
}

// FuzzPosIndex lets the Go fuzzer mutate the operation sequence; the seed
// corpus under testdata/fuzz/FuzzPosIndex covers bulk load, split, drain and
// collapse.
func FuzzPosIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 3, 1, 0, 0})
	f.Add([]byte{2, 0, 255, 2, 0, 255, 3, 0, 7, 0xf4, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every operation is checked with a full enumeration, so an input's
		// cost is quadratic in its length; 512 operations reach 500 chunks.
		runPosIndexOps(t, data[:min(len(data), 3*512)])
	})
}

// TestValidateRejectsCorruptDirectory hand-corrupts a hub bucket's chunk
// directory in each way the chunked layout can go wrong and requires
// Validate to name the damage.
func TestValidateRejectsCorruptDirectory(t *testing.T) {
	const hub = graph.NodeID(9)
	build := func() (*Store, *chunkDir) {
		s := New()
		for i := 0; i < 3*chunkCap; i++ {
			s.Add([]graph.NodeID{hub, graph.NodeID(100 + i)})
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		d := s.stripe(hub).node(hub).pending[unsidedBucket].hub
		if d == nil || len(d.chunks) != 3 {
			t.Fatalf("hub bucket is not a three-chunk directory: %+v", d)
		}
		return s, d
	}
	for _, tc := range []struct {
		name, want string
		corrupt    func(d *chunkDir)
	}{
		{"firsts mismatch", "firsts[1] does not match", func(d *chunkDir) { d.firsts[1]++ }},
		{"unsorted across a chunk boundary", "not strictly sorted", func(d *chunkDir) {
			last := len(d.chunks[0]) - 1
			d.chunks[0][last], d.chunks[1][0] = d.chunks[1][0], d.chunks[0][last]
			d.firsts[1] = d.chunks[1][0]
		}},
		{"empty chunk", "chunk 1 has 0 entries", func(d *chunkDir) {
			d.firsts = slices.Insert(d.firsts, 1, d.firsts[1])
			d.chunks = slices.Insert(d.chunks, 1, []uint64{})
		}},
		{"lone chunk left in the directory", "directory malformed", func(d *chunkDir) {
			d.firsts, d.chunks = d.firsts[:1], [][]uint64{slices.Concat(d.chunks...)}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, d := build()
			tc.corrupt(d)
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
// ErrConcurrentMutation guard: the observer fires strictly inside a
// mutation's counter phase, so it must always see the in-flight count
// non-zero, and the count must drain back to zero (Validate clean) once the
// mutation returns.
func TestMutationInFlightCounter(t *testing.T) {
	s := New()
	minSeen := int64(99)
	s.SetObserver(func(SegmentID, graph.NodeID, int, int) {
		if n := s.mutators.Load(); n < minSeen {
			minSeen = n
		}
	})
	id := s.Add(path(1, 2, 3))
	s.ReplaceTail(id, 1, path(4))
	s.Remove(id)
	if minSeen < 1 {
		t.Fatalf("observer saw in-flight count %d mid-mutation, want >= 1", minSeen)
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
