package stripes

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
)

func TestNewMutexSetRoundsUp(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{1, 1}, {2, 2}, {3, 4}, {500, 512}, {512, 512}} {
		if got := NewMutexSet(tc.n).Len(); got != tc.want {
			t.Fatalf("NewMutexSet(%d).Len()=%d want %d", tc.n, got, tc.want)
		}
	}
}

func TestIndexInRangeAndStable(t *testing.T) {
	s := NewMutexSet(64)
	for k := uint64(0); k < 10_000; k++ {
		i := s.Index(k)
		if i < 0 || i >= s.Len() {
			t.Fatalf("Index(%d)=%d out of range", k, i)
		}
		if j := s.Index(k); j != i {
			t.Fatalf("Index(%d) unstable: %d then %d", k, i, j)
		}
	}
}

// TestCollectIndicesSortedDeduped checks CollectIndices against a
// sort-and-dedup reference for 0 to 5,000 keys over sets of 1, 64, 512 and
// 1,024 stripes (the last takes the heap bitmap), through one reused buffer,
// so a stale index left from the previous call would show.
func TestCollectIndicesSortedDeduped(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0))
	var buf []int
	for _, stripes := range []int{1, 64, 512, 1024} {
		s := NewMutexSet(stripes)
		for _, n := range []int{0, 1, 2, 8, 63, 500, 5000, 3} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64N(uint64(4*n + 1))
			}
			want := make([]int, n)
			for i, k := range keys {
				want[i] = s.Index(k)
			}
			slices.Sort(want)
			want = slices.Compact(want)
			if buf = s.CollectIndices(keys, buf); !slices.Equal(buf, want) {
				t.Fatalf("%d stripes, %d keys: CollectIndices = %v, want %v", stripes, n, buf, want)
			}
		}
	}
}

// TestCollectIndicesAllocFree: with a reused buffer, collecting a lock set
// over the production width of 512 stripes allocates nothing.
func TestCollectIndicesAllocFree(t *testing.T) {
	s := NewMutexSet(512)
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i) * 7919
	}
	buf := s.CollectIndices(keys, nil)
	if allocs := testing.AllocsPerRun(100, func() { buf = s.CollectIndices(keys, buf) }); allocs != 0 {
		t.Fatalf("CollectIndices allocated %.1f times per call", allocs)
	}
}

// TestLockSetMutualExclusion drives many goroutines through overlapping
// ordered lock sets under -race; a counter per stripe catches any failure of
// mutual exclusion.
func TestLockSetMutualExclusion(t *testing.T) {
	s := NewMutexSet(16)
	counters := make([]int, s.Len())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []int
			for iter := 0; iter < 500; iter++ {
				keys := []uint64{uint64(w + iter), uint64(iter), uint64(w * iter)}
				buf = s.CollectIndices(keys, buf)
				s.LockSet(buf)
				for _, i := range buf {
					counters[i]++
				}
				s.UnlockSet(buf)
			}
		}(w)
	}
	wg.Wait()
}

func TestLockPairSameStripe(t *testing.T) {
	s := NewMutexSet(4)
	// Find two keys on the same stripe.
	var a, b uint64
	found := false
	for b = 1; b < 1000 && !found; b++ {
		if s.Index(a) == s.Index(b) {
			found = true
		}
	}
	if !found {
		t.Skip("no collision found")
	}
	b--
	i, j := s.LockPair(a, b)
	if i != j {
		t.Fatalf("LockPair on colliding keys returned distinct stripes %d,%d", i, j)
	}
	s.UnlockPair(i, j) // must not double-unlock
	// Relockable afterwards.
	i, j = s.LockPair(a, b)
	s.UnlockPair(i, j)
}

// TestLockKeysEmpty: an empty key slice is a legal degenerate freeze — no
// stripes collected, no locks taken, and the set stays fully usable.
func TestLockKeysEmpty(t *testing.T) {
	s := NewMutexSet(8)
	idx := s.LockKeys(nil, nil)
	if len(idx) != 0 {
		t.Fatalf("LockKeys(nil) collected stripes: %v", idx)
	}
	s.UnlockSet(idx) // must be a no-op, not a panic
	// Nothing may be left held.
	for i := range s.mus {
		if !s.mus[i].TryLock() {
			t.Fatalf("stripe %d left locked after empty LockKeys/UnlockSet", i)
		}
		s.mus[i].Unlock()
	}
	// Same through LockSet directly.
	s.LockSet(nil)
	s.UnlockSet(nil)
}

// TestLockKeysAllColliding: keys that all hash to one stripe must collapse
// to a single acquisition (no self-deadlock) that actually excludes.
func TestLockKeysAllColliding(t *testing.T) {
	s := NewMutexSet(4)
	keys := make([]uint64, 32)
	want := s.Index(0)
	n := 0
	for k := uint64(0); n < len(keys); k++ {
		if s.Index(k) == want {
			keys[n] = k
			n++
		}
	}
	idx := s.LockKeys(keys, nil)
	if len(idx) != 1 || idx[0] != want {
		t.Fatalf("LockKeys over colliding keys = %v, want [%d]", idx, want)
	}
	if s.mus[want].TryLock() {
		t.Fatal("colliding stripe not actually held after LockKeys")
	}
	s.UnlockSet(idx)
	if !s.mus[want].TryLock() {
		t.Fatal("colliding stripe still held after UnlockSet")
	}
	s.mus[want].Unlock()
}

// TestLockKeysReusedBuf: a reused buffer arriving non-empty (stale indices
// from a previous freeze) must be reset, not merged into the new set.
func TestLockKeysReusedBuf(t *testing.T) {
	s := NewMutexSet(16)
	stale := s.LockKeys([]uint64{1, 2, 3, 4, 5}, nil)
	s.UnlockSet(stale)
	if len(stale) == 0 {
		t.Fatal("setup produced no stale indices")
	}
	fresh := s.CollectIndices([]uint64{100}, nil)
	got := s.LockKeys([]uint64{100}, stale)
	if !slices.Equal(got, fresh) {
		t.Fatalf("LockKeys with stale buf = %v, want %v", got, fresh)
	}
	// Only the fresh stripe may be held: every other stripe must TryLock.
	for i := range s.mus {
		if i == fresh[0] {
			if s.mus[i].TryLock() {
				t.Fatalf("stripe %d should be held", i)
			}
			continue
		}
		if !s.mus[i].TryLock() {
			t.Fatalf("stale stripe %d locked by buffer reuse", i)
		}
		s.mus[i].Unlock()
	}
	s.UnlockSet(got)
}
