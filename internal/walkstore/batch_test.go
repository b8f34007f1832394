package walkstore

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"fastppr/internal/graph"
)

// This file proves the two batching-era primitives: ReplaceTailBatch must be
// byte-equal to the sequential per-mutation path (the maintainers' bitwise
// reproducibility rides on it), and Compact must reclaim arena garbage
// without perturbing any logical state.

// requireStoresEqual asserts two stores are logically identical over the
// given live segment IDs and node space: paths, sides, every counter family,
// every pending-position bucket, and the global epoch.
func requireStoresEqual(t *testing.T, a, b *Store, live []SegmentID, nodeSpace int) {
	t.Helper()
	if ae, be := a.Epoch(), b.Epoch(); ae != be {
		t.Fatalf("Epoch: %d vs %d", ae, be)
	}
	if an, bn := a.NumSegments(), b.NumSegments(); an != bn {
		t.Fatalf("NumSegments: %d vs %d", an, bn)
	}
	for _, id := range live {
		if ap, bp := a.Path(id), b.Path(id); !slices.Equal(ap, bp) {
			t.Fatalf("Path(%d): %v vs %v", id, ap, bp)
		}
		if as, bs := a.SideOf(id), b.SideOf(id); as != bs {
			t.Fatalf("SideOf(%d): %d vs %d", id, as, bs)
		}
	}
	sides := []Side{Unsided, SideForward, SideBackward}
	for v := 0; v < nodeSpace; v++ {
		n := graph.NodeID(v)
		if av, bv := a.Visits(n), b.Visits(n); av != bv {
			t.Fatalf("Visits(%d): %d vs %d", v, av, bv)
		}
		if aw, bw := len(a.Visitors(n)), len(b.Visitors(n)); aw != bw {
			t.Fatalf("W(%d): %d vs %d", v, aw, bw)
		}
		if at, bt := a.Terminals(n), b.Terminals(n); at != bt {
			t.Fatalf("Terminals(%d): %d vs %d", v, at, bt)
		}
		if ac, bc := a.Candidates(n), b.Candidates(n); ac != bc {
			t.Fatalf("Candidates(%d): %d vs %d", v, ac, bc)
		}
		for _, dir := range sides {
			ah := a.PendingPositions(n, dir)
			bh := b.PendingPositions(n, dir)
			if !slices.Equal(ah, bh) {
				t.Fatalf("PendingPositions(%d, %d): %v vs %v", v, dir, ah, bh)
			}
		}
	}
	for _, s := range []*Store{a, b} {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplaceTailBatchMatchesSequential is the table-driven equivalence
// proof: for each case, two identically seeded stores receive the same
// mutation set — one through per-entry ReplaceTail calls in order, the other
// through a single ReplaceTailBatch — and must end byte-equal, with matching
// removed/added totals.
func TestReplaceTailBatchMatchesSequential(t *testing.T) {
	type tc struct {
		name  string
		seed  [][]graph.NodeID // initial paths; segment i gets side i%3-1 pattern below
		sides []Side
		muts  []TailMutation
	}
	mk := func(ids ...int64) []graph.NodeID { return path(ids...) }
	cases := []tc{
		{
			name:  "disjoint segments, mixed extend and truncate",
			seed:  [][]graph.NodeID{mk(1, 2, 3), mk(4, 5), mk(6, 7, 8, 9)},
			sides: []Side{Unsided, Unsided, Unsided},
			muts: []TailMutation{
				{ID: 0, Keep: 1, NewTail: mk(10, 11)},
				{ID: 1, Keep: 2, NewTail: mk(12)},
				{ID: 2, Keep: 2, NewTail: nil}, // pure truncation
			},
		},
		{
			name:  "sided segments cross stripes",
			seed:  [][]graph.NodeID{mk(0, 64, 128), mk(1, 65), mk(2, 66, 130)},
			sides: []Side{SideForward, SideBackward, SideForward},
			muts: []TailMutation{
				{ID: 0, Keep: 2, NewTail: mk(192, 3)},
				{ID: 1, Keep: 1, NewTail: mk(129, 193)},
				{ID: 2, Keep: 1, NewTail: nil},
			},
		},
		{
			name:  "noop entries interleaved",
			seed:  [][]graph.NodeID{mk(1, 2), mk(3, 4)},
			sides: []Side{Unsided, SideForward},
			muts: []TailMutation{
				{ID: 0, Keep: 2, NewTail: nil}, // no-op
				{ID: 1, Keep: 1, NewTail: mk(5, 6)},
				{ID: 1, Keep: 3, NewTail: nil}, // no-op against the new length
			},
		},
		{
			name:  "all noops",
			seed:  [][]graph.NodeID{mk(1, 2), mk(3)},
			sides: []Side{Unsided, Unsided},
			muts: []TailMutation{
				{ID: 0, Keep: 2, NewTail: nil},
				{ID: 1, Keep: 1, NewTail: nil},
			},
		},
		{
			name:  "same segment twice, later entry sees earlier effect",
			seed:  [][]graph.NodeID{mk(1, 2, 3)},
			sides: []Side{SideBackward},
			muts: []TailMutation{
				{ID: 0, Keep: 1, NewTail: mk(7, 8, 9, 10)},
				{ID: 0, Keep: 3, NewTail: mk(11)},
			},
		},
		{
			name:  "terminal moves within one node (revisit)",
			seed:  [][]graph.NodeID{mk(5, 6, 5)},
			sides: []Side{Unsided},
			muts: []TailMutation{
				{ID: 0, Keep: 2, NewTail: mk(5)}, // terminal node unchanged, position moves
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seq, bat := New(), New()
			var live []SegmentID
			for i, p := range c.seed {
				id := seq.AddSided(slices.Clone(p), c.sides[i])
				if got := bat.AddSided(slices.Clone(p), c.sides[i]); got != id {
					t.Fatalf("seed id mismatch: %d vs %d", got, id)
				}
				live = append(live, id)
			}
			var wantRm, wantAd int
			for _, m := range c.muts {
				rm, ad := seq.ReplaceTail(m.ID, m.Keep, m.NewTail)
				wantRm += rm
				wantAd += ad
			}
			gotRm, gotAd := bat.ReplaceTailBatch(c.muts)
			if gotRm != wantRm || gotAd != wantAd {
				t.Fatalf("batch removed/added = %d/%d, sequential = %d/%d", gotRm, gotAd, wantRm, wantAd)
			}
			requireStoresEqual(t, seq, bat, live, 256)
		})
	}
}

// TestReplaceTailBatchChunkedBucket drives one (node, dir) pending bucket
// 0 -> 768 -> 0 inside single ReplaceTailBatch calls and checks the result
// against the sequential path — the grouped apply visits the bucket in a
// different order than the sequential one, so its write log fills and merges
// at different moments while the enumeration must not differ.
func TestReplaceTailBatchChunkedBucket(t *testing.T) {
	const hub = graph.NodeID(3)
	const n = 768
	seq, bat := New(), New()
	var live []SegmentID
	var muts []TailMutation
	// Seed n forward-sided segments [x, i] that do not touch hub, then
	// batch-rewrite every tail to [hub] so each contributes one pending
	// entry at hub (position 1 of a forward segment is backward-pending — the
	// sides alternate).
	for i := 0; i < n; i++ {
		p := []graph.NodeID{graph.NodeID(100 + i), graph.NodeID(5000 + i)}
		id := seq.AddSided(slices.Clone(p), SideForward)
		bat.AddSided(slices.Clone(p), SideForward)
		live = append(live, id)
		muts = append(muts, TailMutation{ID: id, Keep: 1, NewTail: []graph.NodeID{hub}})
	}
	for _, m := range muts {
		seq.ReplaceTail(m.ID, m.Keep, m.NewTail)
	}
	bat.ReplaceTailBatch(muts)
	px := &bat.stripe(hub).node(hub).pending[int(SideBackward)]
	if got := px.len(); got != n {
		t.Fatalf("batched bucket holds %d entries, want %d", got, n)
	}
	requireStoresEqual(t, seq, bat, live, int(hub)+1)
	// And back down to nothing, again in one call.
	muts = muts[:0]
	for _, id := range live {
		muts = append(muts, TailMutation{ID: id, Keep: 1, NewTail: nil})
	}
	for _, m := range muts {
		seq.ReplaceTail(m.ID, m.Keep, m.NewTail)
	}
	bat.ReplaceTailBatch(muts)
	if got := bat.PendingPositions(hub, SideBackward); len(got) != 0 {
		t.Fatalf("drained bucket still has %d hits", len(got))
	}
	requireStoresEqual(t, seq, bat, live, int(hub)+1)
}

// TestReplaceTailBatchPanics pins the bulk API's validation: a bad entry
// anywhere in the batch must panic like its sequential counterpart.
func TestReplaceTailBatchPanics(t *testing.T) {
	s := New()
	id := s.Add(path(1, 2))
	mustPanic(t, "batch keep=0", func() {
		s.ReplaceTailBatch([]TailMutation{{ID: id, Keep: 2}, {ID: id, Keep: 0}})
	})
}

// TestFuzzBatchAgainstSequential mirrors the index-vs-brute churn fuzz
// through the batch API: randomized clumps of tail mutations are applied
// sequentially to one store and as one batch to its twin, with every
// pending-position bucket cross-checked against the full-path enumeration
// and both stores validated as they drift through chunk splits, removals,
// and periodic compactions.
func TestFuzzBatchAgainstSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 0))
	seq, bat := New(), New()
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
	rounds := 300
	if testing.Short() {
		rounds = 80
	}
	for round := 0; round < rounds; round++ {
		switch k := rng.IntN(10); {
		case k < 3 || len(live) == 0:
			p := randPath()
			side := sides[rng.IntN(3)]
			id := seq.AddSided(slices.Clone(p), side)
			bat.AddSided(slices.Clone(p), side)
			live = append(live, id)
		case k < 8:
			// A clump of 1..6 mutations over randomly chosen live segments,
			// duplicates allowed (later entries see earlier effects).
			muts := make([]TailMutation, 0, 6)
			lens := make(map[SegmentID]int)
			for c := 1 + rng.IntN(6); c > 0; c-- {
				id := live[rng.IntN(len(live))]
				n, ok := lens[id]
				if !ok {
					n = len(seq.Path(id))
				}
				keep := 1 + rng.IntN(n)
				var tail []graph.NodeID
				if rng.IntN(4) > 0 {
					tail = randPath()
				}
				lens[id] = keep + len(tail)
				muts = append(muts, TailMutation{ID: id, Keep: keep, NewTail: tail})
			}
			var wantRm, wantAd int
			for _, m := range muts {
				rm, ad := seq.ReplaceTail(m.ID, m.Keep, m.NewTail)
				wantRm += rm
				wantAd += ad
			}
			gotRm, gotAd := bat.ReplaceTailBatch(muts)
			if gotRm != wantRm || gotAd != wantAd {
				t.Fatalf("round %d: batch %d/%d vs sequential %d/%d", round, gotRm, gotAd, wantRm, wantAd)
			}
		case k < 9:
			i := rng.IntN(len(live))
			seq.Remove(live[i])
			bat.Remove(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			bat.Compact() // only the batch store compacts: state must not care
		}
		for v := 0; v < nodeSpace; v++ {
			for _, dir := range sides {
				got := bat.PendingPositions(graph.NodeID(v), dir)
				want := brutePending(bat, live, graph.NodeID(v), dir)
				if !slices.Equal(got, want) {
					t.Fatalf("round %d node %d dir %d:\ngot  %v\nwant %v", round, v, dir, got, want)
				}
			}
		}
		if round%50 == 0 {
			requireStoresEqual(t, seq, bat, live, nodeSpace)
		}
	}
	requireStoresEqual(t, seq, bat, live, nodeSpace)
}

// TestCompactReclaimsGarbage drives churn to pile up arena garbage, then
// pins Compact's contract: all garbage reclaimed (live == total after),
// every path byte-identical, previously returned Path slices untouched,
// Epoch and every StripeEpoch unmoved, Validate clean, and a second Compact
// is a no-op.
func TestCompactReclaimsGarbage(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 0))
	s := New()
	var live []SegmentID
	sides := []Side{Unsided, SideForward, SideBackward}
	for i := 0; i < 40; i++ {
		p := make([]graph.NodeID, 1+rng.IntN(8))
		for j := range p {
			p[j] = graph.NodeID(rng.IntN(50))
		}
		live = append(live, s.AddSided(p, sides[i%3]))
	}
	for op := 0; op < 400; op++ {
		id := live[rng.IntN(len(live))]
		n := len(s.Path(id))
		tail := make([]graph.NodeID, rng.IntN(5))
		for j := range tail {
			tail[j] = graph.NodeID(rng.IntN(50))
		}
		s.ReplaceTail(id, 1+rng.IntN(n), tail)
	}
	liveBefore, totalBefore := s.ArenaStats()
	if totalBefore <= liveBefore {
		t.Fatalf("churn left no garbage: live=%d total=%d", liveBefore, totalBefore)
	}
	epochBefore := s.Epoch()
	var stripeBefore [numStripes]int64
	for i := range stripeBefore {
		stripeBefore[i] = s.StripeEpoch(i)
	}
	snapPaths := make([][]graph.NodeID, len(live))
	snapCopies := make([][]graph.NodeID, len(live))
	for i, id := range live {
		snapPaths[i] = s.Path(id) // old-arena window, must stay intact
		snapCopies[i] = slices.Clone(snapPaths[i])
	}

	gotLive, reclaimed := s.Compact()
	if gotLive != liveBefore || reclaimed != totalBefore-liveBefore {
		t.Fatalf("Compact returned (%d, %d), want (%d, %d)", gotLive, reclaimed, liveBefore, totalBefore-liveBefore)
	}
	liveAfter, totalAfter := s.ArenaStats()
	if liveAfter != liveBefore || totalAfter != liveBefore {
		t.Fatalf("post-compact ArenaStats = (%d, %d), want (%d, %d)", liveAfter, totalAfter, liveBefore, liveBefore)
	}
	if s.Epoch() != epochBefore {
		t.Fatalf("Compact moved Epoch: %d -> %d", epochBefore, s.Epoch())
	}
	for i := range stripeBefore {
		if got := s.StripeEpoch(i); got != stripeBefore[i] {
			t.Fatalf("Compact moved StripeEpoch(%d): %d -> %d", i, stripeBefore[i], got)
		}
	}
	for i, id := range live {
		if got := s.Path(id); !slices.Equal(got, snapCopies[i]) {
			t.Fatalf("Path(%d) changed across Compact: %v want %v", id, got, snapCopies[i])
		}
		if !slices.Equal(snapPaths[i], snapCopies[i]) {
			t.Fatalf("pre-compact Path slice of %d mutated: %v want %v", id, snapPaths[i], snapCopies[i])
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if gotLive, reclaimed = s.Compact(); reclaimed != 0 {
		t.Fatalf("second Compact reclaimed %d from a dense arena", reclaimed)
	}
	// Churn keeps working on the fresh arena.
	s.ReplaceTail(live[0], 1, path(1, 2, 3))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMaybeCompactThreshold pins the garbage-ratio gate: MaybeCompact is a
// no-op on an empty or dense arena, declines while garbage stays below
// compactMinGarbageFrac, and compacts the first time the fraction crosses
// it — so periodic triggers can check cheaply without ever paying a
// full-arena copy for a near-dense store.
func TestMaybeCompactThreshold(t *testing.T) {
	s := New()
	if s.MaybeCompact() {
		t.Fatal("MaybeCompact compacted an empty store")
	}
	var segs []SegmentID
	for i := 0; i < 8; i++ {
		p := make([]graph.NodeID, 10)
		for j := range p {
			p[j] = graph.NodeID(i*10 + j)
		}
		segs = append(segs, s.Add(p))
	}
	if s.MaybeCompact() {
		t.Fatal("MaybeCompact compacted a dense arena")
	}
	if live, total := s.ArenaStats(); live != total {
		t.Fatalf("no-op MaybeCompact changed the arena: live=%d total=%d", live, total)
	}
	for i := 0; ; i++ {
		if i > 1000 {
			t.Fatal("churn never crossed the garbage threshold")
		}
		s.ReplaceTail(segs[i%len(segs)], 1, path(1, 2, 3))
		live, total := s.ArenaStats()
		frac := float64(total-live) / float64(total)
		if frac < compactMinGarbageFrac {
			if s.MaybeCompact() {
				t.Fatalf("MaybeCompact compacted at %.2f garbage, below the %.2f threshold", frac, compactMinGarbageFrac)
			}
			if _, after := s.ArenaStats(); after != total {
				t.Fatalf("declined MaybeCompact changed arena total: %d -> %d", total, after)
			}
			continue
		}
		if !s.MaybeCompact() {
			t.Fatalf("MaybeCompact declined at %.2f garbage, above the %.2f threshold", frac, compactMinGarbageFrac)
		}
		break
	}
	if live, total := s.ArenaStats(); live != total {
		t.Fatalf("post-compact arena not dense: live=%d total=%d", live, total)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentCompactReadersAndBatchMutators is the -race stress for the
// compaction path: writers churn disjoint segment sets through
// ReplaceTailBatch, readers chase index hits into Path reads, and a
// compactor loops Compact the whole time — the exact overlap the
// maintainers' CompactEvery trigger produces against a parallel storm.
func TestConcurrentCompactReadersAndBatchMutators(t *testing.T) {
	const (
		writers   = 3
		nodeSpace = 64
	)
	iters := 300
	if testing.Short() {
		iters = 100
	}
	s := New()
	owned := make([][]SegmentID, writers)
	for w := 0; w < writers; w++ {
		for i := 0; i < 24; i++ {
			owned[w] = append(owned[w], s.AddSided(
				[]graph.NodeID{graph.NodeID(w*16 + i%16), graph.NodeID(i % nodeSpace), graph.NodeID(w)}, Side(i%2)))
		}
	}
	var writerWG sync.WaitGroup
	var auxWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 7))
			var muts []TailMutation
			for it := 0; it < iters; it++ {
				muts = muts[:0]
				for c := 1 + rng.IntN(4); c > 0; c-- {
					id := owned[w][rng.IntN(len(owned[w]))]
					tail := make([]graph.NodeID, rng.IntN(4))
					for j := range tail {
						tail[j] = graph.NodeID(rng.IntN(nodeSpace))
					}
					muts = append(muts, TailMutation{ID: id, Keep: 1, NewTail: tail})
				}
				s.ReplaceTailBatch(muts)
			}
		}(w)
	}
	auxWG.Add(1)
	go func() { // compactor
		defer auxWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Compact()
		}
	}()
	for r := 0; r < 2; r++ {
		auxWG.Add(1)
		go func(r int) { // readers
			defer auxWG.Done()
			rng := rand.New(rand.NewPCG(uint64(r), 8))
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
			}
		}(r)
	}
	writerWG.Wait()
	close(stop)
	auxWG.Wait()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, total := s.ArenaStats(); total == 0 {
		t.Fatal("arena emptied by concurrent churn")
	}
}

// TestGroupByStripe pins the pre-grouping permutation the maintainers use:
// it must be a permutation, group equal stripes contiguously, and preserve
// the original order within each stripe (stability — the property that keeps
// Workers=1 pre-grouped runs deterministic).
func TestGroupByStripe(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 0))
	for trial := 0; trial < 20; trial++ {
		n := rng.IntN(200)
		nodes := make([]graph.NodeID, n)
		for i := range nodes {
			nodes[i] = graph.NodeID(rng.IntN(1000))
		}
		order := GroupByStripe(n, func(i int) graph.NodeID { return nodes[i] })
		if len(order) != n {
			t.Fatalf("trial %d: len=%d want %d", trial, len(order), n)
		}
		seen := make([]bool, n)
		for _, i := range order {
			if i < 0 || i >= n || seen[i] {
				t.Fatalf("trial %d: not a permutation: %v", trial, order)
			}
			seen[i] = true
		}
		firstSeen := map[int]int{}
		lastStripe := -1
		for k, i := range order {
			st := stripeIndex(nodes[i])
			if st != lastStripe {
				if _, dup := firstSeen[st]; dup {
					t.Fatalf("trial %d: stripe %d not contiguous in %v", trial, st, order)
				}
				firstSeen[st] = k
				lastStripe = st
			}
			if k > firstSeen[st] {
				prev := order[k-1]
				if stripeIndex(nodes[prev]) == st && prev > i {
					t.Fatalf("trial %d: within-stripe order not stable at %d", trial, k)
				}
			}
		}
	}
}
