// Package repair (fixture) pins that the repair kernel stays under the
// determinism analyzer: the set is keyed by package name, so code moved into
// a package named repair must still have its global RNG draws and
// order-sensitive map ranges flagged.
package repair

import (
	randv2 "math/rand/v2"
)

func globalCoin(p float64) bool {
	return randv2.Float64() < p // want "global rand.Float64 in deterministic package repair"
}

func workerCoin(rng *randv2.Rand, p float64) bool {
	return rng.Float64() < p
}

func mapRangeCoins(m map[uint64]int, rng *randv2.Rand) int {
	n := 0
	for range m { // want "range over map feeds an RNG draw"
		if rng.Float64() < 0.5 {
			n++
		}
	}
	return n
}
