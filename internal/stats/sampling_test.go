package stats

import (
	"math/rand/v2"
	"testing"
)

// TestFirstSuccessHitCertainDrawsNothing pins the p >= 1 shortcut of both
// samplers: a certain trial succeeds without consuming randomness, so the
// RNG's next draw is the one it would have made without the call. Trials at
// or before the pre-sampled first success never draw either.
func TestFirstSuccessHitCertainDrawsNothing(t *testing.T) {
	for _, tc := range []struct {
		first, idx int64
		p          float64
		want       bool
	}{
		{first: 0, idx: 3, p: 1, want: true},
		{first: 2, idx: 5, p: 1.5, want: true},
		{first: 4, idx: 1, p: 0.5, want: false},
		{first: 4, idx: 4, p: 0.5, want: true},
	} {
		rng := rand.New(rand.NewPCG(7, 8))
		ref := rand.New(rand.NewPCG(7, 8))
		if got := FirstSuccessHit(rng, tc.first, tc.idx, tc.p); got != tc.want {
			t.Fatalf("FirstSuccessHit(first=%d, idx=%d, p=%v)=%v want %v", tc.first, tc.idx, tc.p, got, tc.want)
		}
		if got, want := rng.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("first=%d idx=%d p=%v: call consumed randomness (next draw %d, want %d)", tc.first, tc.idx, tc.p, got, want)
		}
	}
	// A certain law's first success is trial 0, drawn from nothing.
	rng := rand.New(rand.NewPCG(7, 8))
	ref := rand.New(rand.NewPCG(7, 8))
	if j := TruncatedGeometric(rng, 1, 5); j != 0 {
		t.Fatalf("TruncatedGeometric(p=1)=%d want 0", j)
	}
	if rng.Uint64() != ref.Uint64() {
		t.Fatal("TruncatedGeometric(p=1) consumed randomness")
	}
	// Below certainty a trial past the first success flips a real coin.
	rng = rand.New(rand.NewPCG(7, 8))
	ref = rand.New(rand.NewPCG(7, 8))
	FirstSuccessHit(rng, 0, 1, 0.999)
	ref.Float64()
	if rng.Uint64() != ref.Uint64() {
		t.Fatal("a p < 1 trial after the first success must draw exactly one Float64")
	}
}
