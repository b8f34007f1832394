package walkstore_test

import (
	"testing"

	"fastppr/internal/pagerank"
	"fastppr/internal/salsa"
	"fastppr/internal/socialstore"
)

// The Social Store round trips of the contract stream, pinned as counts. An
// arrival or a deletion is exactly one write, whose reply carries every
// degree and multiplicity its repair needs; the reads are the steps of
// regrown tails and freshly seeded walks and nothing else. A degree or
// multiplicity read put back on the update path moves these constants, and a
// changed coin order moves them too (with the fingerprints beside them).
// Before the replies, the same stream read 30,838 and 431,605 times: one
// more read per arrival and two more per deletion for PageRank, two and
// three for SALSA (1,485 arrivals, 826 deletions).
const (
	roundTripReadsPagerank = 27701
	roundTripReadsSalsa    = 426157
)

// requireRoundTrips checks the write identity and the pinned read count.
// Serialized, a deletion never misses, and a miss would still be one write:
// the store is asked either way.
func requireRoundTrips(t *testing.T, calls socialstore.CallSnapshot, arrivals, deletions, misses, reads int64) {
	t.Helper()
	if misses != 0 {
		t.Fatalf("serialized contract stream missed %d deletions", misses)
	}
	if want := arrivals + deletions - misses; calls.Writes != want {
		t.Fatalf("Writes = %d, want Arrivals + Deletions - DelMisses = %d", calls.Writes, want)
	}
	if calls.Reads != reads {
		t.Fatalf("Reads = %d, want %d: a read joined or left the update path, or the coin order moved", calls.Reads, reads)
	}
}

func TestStoreRoundTripsPagerank(t *testing.T) {
	mt := pagerank.New(contractGraph(), pagerank.Config{Eps: 0.2, R: 12, Workers: 1, Seed: 1702})
	runContract(t, mt)
	c := mt.Counters()
	requireRoundTrips(t, mt.Social().Snapshot(), c.Arrivals, c.Deletions, c.DelMisses, roundTripReadsPagerank)
}

func TestStoreRoundTripsSalsa(t *testing.T) {
	mt := salsa.New(contractGraph(), salsa.Config{Eps: 0.2, R: 6, Workers: 1, Seed: 1703})
	runContract(t, mt)
	c := mt.Counters()
	requireRoundTrips(t, mt.Social().Snapshot(), c.Arrivals, c.Deletions, c.DelMisses, roundTripReadsSalsa)
}
