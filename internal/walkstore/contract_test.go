package walkstore_test

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"fastppr/internal/gen"
	"fastppr/internal/graph"
	"fastppr/internal/pagerank"
	"fastppr/internal/salsa"
	"fastppr/internal/socialstore"
	"fastppr/internal/walkstore"
)

// The bitwise contract, pinned as data: a fixed-seed serialized churn stream
// (arrivals, deletions, a compaction) through each maintainer must leave
// exactly this store — segment table, dead gaps and epoch included — and
// exactly this pending-position enumeration for every (node, bucket). The
// maintainers draw their repair coins over that enumeration, so any change
// of its order, or of the RNG draw order, moves every later path and with it
// these hashes. The constants were computed at commit e8671a5 (the chunked
// index), before the write-buffered index replaced it.
const (
	contractNodes    = 300
	contractPagerank = 0xb971a8bb0dbcd6ca
	contractSalsa    = 0xc79a23facd416327
)

// contractStream is the churn both maintainers consume: a preferential-
// attachment graph arriving in random order, cut into grow and shrink phases.
func contractStream() []graph.Event {
	rng := rand.New(rand.NewPCG(1701, 0))
	full := gen.PreferentialAttachment(contractNodes, 5, rng)
	return gen.ShrinkGrowStream(gen.RandomPermutationStream(full, rng), 4, 0.3, rng)
}

func contractGraph() *socialstore.Store {
	g := graph.New(contractNodes)
	for i := 0; i < contractNodes; i++ {
		g.AddNode(graph.NodeID(i))
	}
	return socialstore.New(g)
}

// churner is what the contract needs of a maintainer.
type churner interface {
	Bootstrap() int64
	ApplyEvents([]graph.Event)
	Store() *walkstore.Store
	Social() *socialstore.Store
}

// runContract bootstraps mt, applies the first half of the stream, compacts
// the arena (which must reclaim something and change nothing), applies the
// rest, and validates the store.
func runContract(t *testing.T, mt churner) {
	t.Helper()
	events := contractStream()
	mt.Bootstrap()
	mt.ApplyEvents(events[:len(events)/2])
	if _, reclaimed := mt.Store().Compact(); reclaimed == 0 {
		t.Fatal("mid-stream compaction reclaimed nothing")
	}
	mt.ApplyEvents(events[len(events)/2:])
	if err := mt.Store().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := mt.Store().ValidateSteps(mt.Social().Graph().HasEdge); err != nil {
		t.Fatal(err)
	}
}

// fingerprint hashes Dump() and every node's three bucket enumerations.
func fingerprint(t *testing.T, s *walkstore.Store) uint64 {
	t.Helper()
	d, err := s.Dump()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	put(d.Epoch)
	put(d.TotalVisits)
	put(d.SidedTotals[0])
	put(d.SidedTotals[1])
	for _, sd := range d.Segs {
		if !sd.Live {
			put(-1)
			continue
		}
		put(int64(sd.Side))
		put(int64(len(sd.Path)))
		for _, v := range sd.Path {
			put(int64(v))
		}
	}
	var hits []walkstore.PosHit
	for v := graph.NodeID(0); v < contractNodes; v++ {
		for _, dir := range []walkstore.Side{walkstore.SideForward, walkstore.SideBackward, walkstore.Unsided} {
			hits = s.AppendPendingPositions(hits, v, dir)
			put(int64(len(hits)))
			for _, hit := range hits {
				put(int64(hit.Seg))
				put(int64(hit.Pos))
			}
		}
	}
	return h.Sum64()
}

func TestBitwiseContractPagerank(t *testing.T) {
	mt := pagerank.New(contractGraph(), pagerank.Config{Eps: 0.2, R: 12, Workers: 1, Seed: 1702})
	runContract(t, mt)
	if c := mt.Counters(); c.SlowNoops != 0 || c.DelMisses != 0 || c.Deletions == 0 {
		t.Fatalf("counters %+v: want deletions, no slow no-ops, no misses", c)
	}
	if got := fingerprint(t, mt.Store()); got != contractPagerank {
		t.Fatalf("store fingerprint %#x, want %#x: the enumeration order or the coin order moved", got, uint64(contractPagerank))
	}
}

func TestBitwiseContractSalsa(t *testing.T) {
	mt := salsa.New(contractGraph(), salsa.Config{Eps: 0.2, R: 6, Workers: 1, Seed: 1703})
	runContract(t, mt)
	if c := mt.Counters(); c.SlowNoops != 0 || c.DelMisses != 0 || c.Deletions == 0 {
		t.Fatalf("counters %+v: want deletions, no slow no-ops, no misses", c)
	}
	if got := fingerprint(t, mt.Store()); got != contractSalsa {
		t.Fatalf("store fingerprint %#x, want %#x: the enumeration order or the coin order moved", got, uint64(contractSalsa))
	}
}

// TestContractStreamParallel runs the same stream with two update workers,
// where a fixed seed reproduces the distribution but not the bits: only the
// invariants are asserted.
func TestContractStreamParallel(t *testing.T) {
	pr := pagerank.New(contractGraph(), pagerank.Config{Eps: 0.2, R: 12, Workers: 1, UpdateWorkers: 2, Seed: 1702})
	runContract(t, pr)
	if c := pr.Counters(); c.SlowNoops != 0 {
		t.Fatalf("pagerank SlowNoops=%d, want 0", c.SlowNoops)
	}
	sa := salsa.New(contractGraph(), salsa.Config{Eps: 0.2, R: 6, Workers: 1, UpdateWorkers: 2, Seed: 1703})
	runContract(t, sa)
	if c := sa.Counters(); c.SlowNoops != 0 {
		t.Fatalf("salsa SlowNoops=%d, want 0", c.SlowNoops)
	}
}
