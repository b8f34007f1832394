// Package stats implements the statistical toolkit the paper's evaluation
// relies on: 11-point interpolated average precision (the metric of Figure
// 5) and small numeric helpers (harmonic numbers, summaries, and the
// truncated-geometric sampler plus first-success-hit rule behind the
// repair kernel's lossless fast path —
// docs/DESIGN.md#3-the-lossless-wv-fast-path).
package stats
