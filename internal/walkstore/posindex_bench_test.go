package walkstore

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// The posIndex microbenchmarks time one bucket at three sizes — an ordinary
// node's 64 entries, 1 Ki and a 100 Ki hub — under the two key orders the
// store produces: "append" (bulk loads and fresh segments carry the largest
// IDs yet, removals unwind from the end) and "random" (a reroute rewrites the
// tail of an arbitrary stored segment). Add and Remove time writes alone,
// with whatever merges their write logs force; WriteRead charges the reads'
// merges too.

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
		slices.SortFunc(all, func(a, b PosHit) int {
			return cmp.Compare(packEntry(a.Seg, a.Pos), packEntry(b.Seg, b.Pos))
		})
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
// in the opposite order off it, restoring the buckets — and then reads them,
// so every timed pass starts on merged buckets instead of unwinding, word for
// word, the write log its own undo pass left.
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
		for i := range pxs {
			pxs[i].len()
		}
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

// BenchmarkPosIndexWriteRead times the index the way a repair phase loads
// it: random-key writes (a remove of a resident key and an add of a spare
// one alternating, so the bucket stays at n) with one full enumeration after
// every writes_per_read of them. One operation is one write; the reads' cost
// is spread over the writes between them. A ratio of 1 is the write log's
// worst case — every write is merged by the read behind it — 256 is a hub
// that is written far more often than it is read, and 0 ("never") leaves
// every merge to the write-side thresholds logMin and logFrac.
func BenchmarkPosIndexWriteRead(b *testing.B) {
	for _, n := range benchSizes {
		for _, ratio := range []int{1, 16, 256, 0} {
			name := fmt.Sprintf("n=%d/writes_per_read=%d", n, ratio)
			if ratio == 0 {
				name = fmt.Sprintf("n=%d/writes_per_read=never", n)
			}
			b.Run(name, func(b *testing.B) {
				in, out := benchKeys(n, n, false)
				px := &benchBuckets(in, 4096)[0]
				rng := rand.New(rand.NewPCG(uint64(n), uint64(ratio)))
				var dst []PosHit
				j := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i&1 == 0 {
						j = rng.IntN(n)
						removeHit(px, in[j])
					} else {
						k := rng.IntN(n)
						addHit(px, out[k])
						in[j], out[k] = out[k], in[j]
					}
					if ratio != 0 && (i+1)%ratio == 0 {
						dst = px.appendTo(dst[:0])
					}
				}
			})
		}
	}
}
