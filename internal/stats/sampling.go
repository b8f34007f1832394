package stats

import (
	"math"
	"math/rand/v2"
)

// TruncatedGeometric samples the index of the first success among k
// independent Bernoulli(p) trials, conditioned on at least one success:
//
//	P(J = j) = (1-p)^j p / (1 - (1-p)^k)   for j in [0, k).
//
// The repair kernel uses it to make the W(v) fast path
// distribution-lossless: when the skip coin decides an arrival does perturb
// the store, the position of the first perturbed step is drawn from exactly
// the conditional law the skipped naive coin flips would have produced. A
// certain trial (p >= 1) is the first success without a draw.
func TruncatedGeometric(rng *rand.Rand, p float64, k int64) int64 {
	if p >= 1 {
		return 0
	}
	q := 1 - p
	u := rng.Float64()
	j := int64(math.Log(1-u*(1-math.Pow(q, float64(k)))) / math.Log(q))
	if j < 0 {
		j = 0
	}
	if j >= k {
		j = k - 1
	}
	return j
}

// FirstSuccessHit decides whether the idx-th enumerated Bernoulli(p) trial
// succeeds, given a pre-sampled first-success index from TruncatedGeometric:
// trials before first fail by construction, trial first succeeds, and later
// trials flip independent coins — except that a trial with p >= 1 succeeds
// without a draw, so a certain law consumes no randomness. Used by the
// repair kernel's first-success scan.
func FirstSuccessHit(rng *rand.Rand, first, idx int64, p float64) bool {
	switch {
	case idx < first:
		return false
	case idx == first, p >= 1:
		return true
	default:
		return rng.Float64() < p
	}
}
