package walkstore_test

import (
	"testing"

	"fastppr/internal/engine"
	"fastppr/internal/graph"
	"fastppr/internal/walkstore"
)

// The engine's sliding-window path repairs walks with its own copy of the
// reroute and reverse-reroute rules, so its bits are pinned separately: the
// contract stream's arrivals, in order, through engine.ApplyWindow with one
// worker, a fixed capacity and a fixed seed, must leave exactly this store
// and pending-position enumeration. The constant was computed at commit
// 0a87f64, before the maintainers' legacy scans were deleted.
const (
	contractWindowCapacity = 400
	contractWindow         = 0x17d6b1d023a90e55
)

func TestBitwiseContractWindow(t *testing.T) {
	var arrivals []graph.Edge
	for _, ev := range contractStream() {
		if !ev.Del {
			arrivals = append(arrivals, ev.Edge)
		}
	}
	g := contractGraph().Graph()
	store := walkstore.New()
	eng := engine.New(g, store, engine.Config{Eps: 0.2, R: 12, Workers: 1, Seed: 1704, CompactEvery: 64})
	eng.BuildStore(g.Nodes())
	st := eng.ApplyWindow(arrivals, contractWindowCapacity, 1705)
	if st.Expired != len(arrivals)-contractWindowCapacity || st.Delete.Missed != 0 {
		t.Fatalf("window stats %+v over %d arrivals: want every arrival past capacity expired, no misses", st, len(arrivals))
	}
	if err := store.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := store.ValidateSteps(g.HasEdge); err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, store); got != contractWindow {
		t.Fatalf("store fingerprint %#x, want %#x: the engine's enumeration order or coin order moved", got, uint64(contractWindow))
	}
}
