package stripes

import (
	"math/bits"
	"sync"
)

// Hash spreads a key over the stripe space with Fibonacci hashing — the same
// multiplier the graph shards and the social store use, extracted here so
// every striped layer agrees on what "well spread" means.
func Hash(key uint64) uint64 {
	return key * 0x9e3779b97f4a7c15
}

// MutexSet is a fixed, power-of-two-sized array of mutexes addressed by
// hashed key. It is the striping primitive shared by the walk engine and both
// incremental maintainers: lock the stripe of a key to serialize all work
// keyed there, while unrelated keys proceed in parallel.
type MutexSet struct {
	mus  []sync.Mutex
	mask uint64
}

// NewMutexSet returns a set of at least n stripes, rounded up to a power of
// two so stripe selection is a mask, not a division.
func NewMutexSet(n int) *MutexSet {
	size := 1
	for size < n {
		size <<= 1
	}
	return &MutexSet{mus: make([]sync.Mutex, size), mask: uint64(size - 1)}
}

// Len returns the number of stripes.
func (s *MutexSet) Len() int { return len(s.mus) }

// Index returns the stripe index of key.
func (s *MutexSet) Index(key uint64) int {
	return int((Hash(key) >> 32) & s.mask)
}

// Of returns the mutex striping key.
func (s *MutexSet) Of(key uint64) *sync.Mutex {
	return &s.mus[s.Index(key)]
}

// Lock locks stripe i.
func (s *MutexSet) Lock(i int) { s.mus[i].Lock() }

// Unlock unlocks stripe i.
func (s *MutexSet) Unlock(i int) { s.mus[i].Unlock() }

// LockPair locks the stripes of two keys in index order, skipping the
// duplicate when both keys land on one stripe. Ordered acquisition is what
// makes holding two stripes deadlock-free; the SALSA maintainer uses it to
// serialize on an arrival's source and target at once.
func (s *MutexSet) LockPair(a, b uint64) (i, j int) {
	i, j = s.Index(a), s.Index(b)
	if i > j {
		i, j = j, i
	}
	s.mus[i].Lock()
	if j != i {
		s.mus[j].Lock()
	}
	return i, j
}

// UnlockPair releases the stripes returned by LockPair.
func (s *MutexSet) UnlockPair(i, j int) {
	if j != i {
		s.mus[j].Unlock()
	}
	s.mus[i].Unlock()
}

// LockSet locks every stripe index in idx, which must be sorted ascending
// and duplicate-free (CollectIndices produces exactly that). Acquiring in
// ascending order across all callers is the deadlock-freedom argument for
// freezing a whole set of segments at once.
func (s *MutexSet) LockSet(idx []int) {
	for _, i := range idx {
		s.mus[i].Lock()
	}
}

// UnlockSet releases the stripes locked by LockSet.
func (s *MutexSet) UnlockSet(idx []int) {
	for k := len(idx) - 1; k >= 0; k-- {
		s.mus[idx[k]].Unlock()
	}
}

// LockKeys collects the sorted, deduplicated stripe indices of keys into
// buf, locks them, and returns the held index set for UnlockSet — the
// freeze-a-segment-set operation both maintainers' repair scans are built
// on.
func (s *MutexSet) LockKeys(keys []uint64, buf []int) []int {
	buf = s.CollectIndices(keys, buf)
	s.LockSet(buf)
	return buf
}

// stackStripes is the largest set whose CollectIndices bitmap lives on the
// stack; every production set (512 segment stripes) fits.
const stackStripes = 512

// CollectIndices appends the sorted, deduplicated stripe indices of keys to
// buf (reset first) and returns it — the ordered lock set LockSet consumes.
// It marks each key's stripe in a bitmap and then walks the set bits in
// ascending order: O(len(keys) + Len()/64), independent of how many stripes
// a hub's freeze collects. Callers reuse buf across arrivals to stay
// allocation-free; sets above stackStripes allocate their bitmap per call.
func (s *MutexSet) CollectIndices(keys []uint64, buf []int) []int {
	var stack [stackStripes / 64]uint64
	var words []uint64
	if n := (len(s.mus) + 63) / 64; n <= len(stack) {
		words = stack[:n]
	} else {
		words = make([]uint64, n)
	}
	for _, k := range keys {
		i := s.Index(k)
		words[i>>6] |= 1 << (i & 63)
	}
	buf = buf[:0]
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			buf = append(buf, w<<6|bits.TrailingZeros64(word))
		}
	}
	return buf
}
