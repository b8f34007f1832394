package stripes

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

var sinkIdx []int

// BenchmarkLockKeys times a repair phase's freeze over the production width
// of 512 segment stripes: collect only, and collect + LockSet + UnlockSet.
// 8 keys is an ordinary node's segment set; 512 and 4,096 are hub freezes,
// which cover most or all of the stripes.
func BenchmarkLockKeys(b *testing.B) {
	s := NewMutexSet(512)
	for _, n := range []int{8, 64, 512, 4096} {
		rng := rand.New(rand.NewPCG(uint64(n), 0))
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		b.Run(fmt.Sprintf("keys=%d/collect", n), func(b *testing.B) {
			buf := s.CollectIndices(keys, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = s.CollectIndices(keys, buf)
			}
			sinkIdx = buf
		})
		b.Run(fmt.Sprintf("keys=%d/lock", n), func(b *testing.B) {
			buf := s.CollectIndices(keys, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = s.LockKeys(keys, buf)
				s.UnlockSet(buf)
			}
			sinkIdx = buf
		})
	}
}
