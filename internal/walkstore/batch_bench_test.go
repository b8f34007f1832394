package walkstore_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"fastppr/internal/gen"
	"fastppr/internal/salsa"
	"fastppr/internal/socialstore"
	"fastppr/internal/walkstore"
)

// BenchmarkReplaceTailBatch times the store's batched tail write on a
// bootstrapped SALSA store (10k-node preferential-attachment graph, 100k
// sided segments): one operation is one batch of 13 tail replacements — the
// benchmark of record's walkstore.mutations_per_update on salsa_churn — each
// cutting a random segment at a random position and splicing on the tail of
// another, so visits move between buckets of every size while the store's
// shape holds steady. With reads=2 every batch is followed by two
// pending-position enumerations at random visited nodes, as a SALSA update
// makes; without them, writes whose index upkeep is deferred to the next
// reader would be timed without that upkeep.
func BenchmarkReplaceTailBatch(b *testing.B) {
	const n, batch = 10_000, 13
	rng := rand.New(rand.NewPCG(7, 0))
	soc := socialstore.New(gen.PreferentialAttachment(n, 8, rng))
	mt := salsa.New(soc, salsa.Config{Eps: 0.2, R: 5, Workers: 1, Seed: 8})
	mt.Bootstrap()
	s := mt.Store()
	segs := s.NumSegments()
	for _, reads := range []int{0, 2} {
		b.Run(fmt.Sprintf("reads=%d", reads), func(b *testing.B) {
			muts := make([]walkstore.TailMutation, batch)
			var hits []walkstore.PosHit
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Distinct segments: a random first one, the rest a fixed
				// stride apart, so each Keep is drawn against a current path.
				first := rng.IntN(segs)
				for j := range muts {
					id := walkstore.SegmentID((first + j*7919) % segs)
					donor := s.Path(walkstore.SegmentID(rng.IntN(segs)))
					muts[j] = walkstore.TailMutation{
						ID:      id,
						Keep:    1 + rng.IntN(len(s.Path(id))),
						NewTail: donor[1+rng.IntN(len(donor)):],
					}
				}
				s.ReplaceTailBatch(muts)
				for r := 0; r < reads; r++ {
					p := s.Path(walkstore.SegmentID(rng.IntN(segs)))
					hits = s.AppendPendingPositions(hits, p[rng.IntN(len(p))], walkstore.Side(rng.IntN(2)))
				}
				if i%1024 == 1023 {
					b.StopTimer()
					s.MaybeCompact()
					b.StartTimer()
				}
			}
		})
	}
	if err := s.Validate(); err != nil {
		b.Fatal(err)
	}
}
