package stats

import "math"

// Summary holds basic descriptive statistics.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
	Sum       float64
}

// Summarize computes descriptive statistics of xs. It panics on empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize of empty slice")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(s.N))
	return s
}

// Harmonic returns the m-th harmonic number H_m = sum_{t=1..m} 1/t.
func Harmonic(m int) float64 {
	h := 0.0
	for t := 1; t <= m; t++ {
		h += 1.0 / float64(t)
	}
	return h
}
