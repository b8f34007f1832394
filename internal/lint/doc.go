// Package lint machine-checks the repository's lock-order, determinism,
// and documentation invariants: a suite of three analyzers built directly
// on go/ast and go/types (no golang.org/x/tools dependency), compiled into
// the cmd/walklint vettool and run as `go vet -vettool=walklint ./...`.
//
// The analyzers and the contracts they hold the code to:
//
//   - lockorder — the DESIGN.md#6-concurrency-model lock hierarchy: stripe
//     mutexes multi-acquired only via LockPair/LockSet/LockKeys, no
//     upward or same-level cross-set acquisitions.
//   - determinism — no wall clock, global rand, or order-sensitive map
//     ranges in the replayable packages.
//   - docanchor — every internal package has a doc.go whose DESIGN.md
//     anchors resolve to real headings.
//
// Reviewed exceptions are annotated in source as
// `//lint:allow <analyzer> <reason>`; the reason is mandatory. The full
// rules live in DESIGN.md#12-static-analysis.
package lint
