// Command walklint is the repository's vettool: the internal/lint analyzer
// suite (lockorder, determinism, docanchor) behind `go vet`'s unit
// protocol.
//
// Usage:
//
//	go build -o walklint ./cmd/walklint
//	go vet -vettool=./walklint ./...
//
// Findings are vet failures; reviewed exceptions are recorded in source as
// `//lint:allow <analyzer> <reason>`. See docs/DESIGN.md#12-static-analysis.
package main

import "fastppr/internal/lint"

func main() { lint.Main() }
