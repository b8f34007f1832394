// Package stripes is the shared lock-striping helper behind every concurrent
// layer of the system: the hash that spreads keys over stripes, a
// power-of-two mutex set addressed by key, and the ordered multi-lock
// acquisition (pairs and sorted sets) whose fixed ascending order is the
// deadlock-freedom argument for the maintainers' parallel update paths.
// A sorted set is collected through a stripe bitmap, so a hub freeze that
// touches hundreds of stripes costs one pass over its keys plus one over
// the bitmap.
//
// The engine stripes reroutes by SegmentID, the PageRank maintainer
// serializes arrivals by source stripe, and the SALSA maintainer locks the
// (source, target) stripe pair — all through this one primitive, so the lock
// order documented in docs/DESIGN.md#6-concurrency-model is enforced by
// construction rather than by convention.
package stripes
