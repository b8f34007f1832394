package walkstore

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// The posIndex microbenchmarks time one bucket at three sizes — an ordinary
// node's 64 entries, 1 Ki (four chunks) and a 100 Ki hub — under the two key
// orders the store produces: "append" (bulk loads and fresh segments carry
// the largest IDs yet, removals unwind from the end) and "random" (a reroute
// rewrites the tail of an arbitrary stored segment).

var benchSizes = []int{64, 1 << 10, 100 << 10}

// benchKeys returns n resident keys and m extra ones, all distinct. With
// appendOnly the extras sort after every resident key, ascending; otherwise
// residents and extras interleave at random.
func benchKeys(n, m int, appendOnly bool) (base, extra []PosHit) {
	rng := rand.New(rand.NewPCG(uint64(n), uint64(m)))
	seen := make(map[PosHit]bool, n+m)
	all := make([]PosHit, 0, n+m)
	for len(all) < n+m {
		h := PosHit{Seg: SegmentID(rng.IntN(4 * (n + m))), Pos: int32(rng.IntN(16))}
		if !seen[h] {
			seen[h] = true
			all = append(all, h)
		}
	}
	if appendOnly {
		slices.SortFunc(all, comparePosHit)
	}
	return all[:n], all[n:]
}

// benchBuckets returns enough identical buckets holding keys that one pass
// over all of them is at least a few thousand operations: the timed batches
// below toggle the benchmark timer, which costs microseconds, once per pass.
func benchBuckets(keys []PosHit, perBucket int) []posIndex {
	pxs := make([]posIndex, max(1, 4096/perBucket))
	for i := range pxs {
		for _, h := range keys {
			pxs[i].add(h.Seg, h.Pos)
		}
	}
	return pxs
}

// benchOrders runs fn once per (size, key order) pair. The extras are a
// quarter of the resident set (at least 16), so a timed batch moves a
// bucket's size by at most a quarter around n.
func benchOrders(b *testing.B, fn func(b *testing.B, base, extra []PosHit)) {
	for _, n := range benchSizes {
		for _, order := range []string{"random", "append"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, order), func(b *testing.B) {
				base, extra := benchKeys(n, max(16, n/4), order == "append")
				b.ReportAllocs()
				fn(b, base, extra)
			})
		}
	}
}

// benchBatches runs timed over b.N operations in passes: each pass applies
// timed to (bucket, extra key) pairs on the clock — taking each bucket's
// extras from the back when backwards is set — and untimed to the same pairs
// in the opposite order off it, restoring the buckets.
func benchBatches(b *testing.B, pxs []posIndex, extra []PosHit, backwards bool, timed, untimed func(px *posIndex, h PosHit)) {
	pass := func(n int, undo bool, op func(px *posIndex, h PosHit)) {
		for k := 0; k < n; k++ {
			i := k
			if undo {
				i = n - 1 - k
			}
			j := i % len(extra)
			if backwards {
				j = len(extra) - 1 - j
			}
			op(&pxs[i/len(extra)], extra[j])
		}
	}
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(len(pxs)*len(extra), b.N-done)
		pass(n, false, timed)
		done += n
		b.StopTimer()
		pass(n, true, untimed)
		b.StartTimer()
	}
}

func addHit(px *posIndex, h PosHit)    { px.add(h.Seg, h.Pos) }
func removeHit(px *posIndex, h PosHit) { px.remove(h.Seg, h.Pos) }

// BenchmarkPosIndexAdd times add on buckets holding n entries: the extras go
// in on the clock and come back out off it.
func BenchmarkPosIndexAdd(b *testing.B) {
	benchOrders(b, func(b *testing.B, base, extra []PosHit) {
		benchBatches(b, benchBuckets(base, len(extra)), extra, false, addHit, removeHit)
	})
}

// BenchmarkPosIndexRemove is the mirror image: the extras are resident and
// are removed on the clock (from the end in append order, as ReplaceTail
// unwinds a tail), then re-added off it.
func BenchmarkPosIndexRemove(b *testing.B) {
	benchOrders(b, func(b *testing.B, base, extra []PosHit) {
		benchBatches(b, benchBuckets(append(slices.Clone(base), extra...), len(extra)), extra, true, removeHit, addHit)
	})
}

// BenchmarkPosIndexAppendTo times one full enumeration of an n-entry bucket
// into a reused destination — the probe every repair phase starts with.
func BenchmarkPosIndexAppendTo(b *testing.B) {
	benchOrders(b, func(b *testing.B, base, _ []PosHit) {
		px := &benchBuckets(base, len(base))[0]
		var dst []PosHit
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = px.appendTo(dst[:0])
		}
		if len(dst) != len(base) {
			b.Fatalf("enumerated %d entries, want %d", len(dst), len(base))
		}
	})
}
