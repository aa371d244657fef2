package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to be a measurement rather than a single outlier.
const minBeyond = 10

// beyond returns how many of n samples lie strictly above the p-th
// nearest-rank percentile.
func beyond(n, p int) int { return n - (p*n+99)/100 }

// tailPercentile returns the highest whole percentile, at most 99, that
// has at least minBeyond of n samples beyond it, or 0 when even the
// median has fewer.
func tailPercentile(n int) int {
	for p := 99; p >= 50; p-- {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the p-th nearest-rank percentile of xs (0 for none).
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := (p*len(s) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is percentile 50 under the same nearest-rank rule.
func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// costRatio returns the mean, over the final quarter of the periods, of
// the noise-free cost of the chosen control divided by the oracle's cost
// in that period's context. The cost gap in percent is 100·(ratio − 1).
func costRatio(chosen, oracle []float64) float64 {
	n := len(chosen)
	q := n / 4
	if q == 0 {
		q = n
	}
	s := 0.0
	for i := n - q; i < n; i++ {
		s += chosen[i] / oracle[i]
	}
	return s / float64(q)
}

// stragglerRatio returns the mean over fleet steps of the slowest
// cell-period divided by the mean cell-period of that step: 1 when every
// cell takes equally long.
func stragglerRatio(steps [][]float64) float64 {
	var ratios []float64
	for _, cells := range steps {
		m := mean(cells)
		if m <= 0 {
			continue
		}
		hi := math.Inf(-1)
		for _, c := range cells {
			hi = math.Max(hi, c)
		}
		ratios = append(ratios, hi/m)
	}
	return mean(ratios)
}

// parallelEfficiency returns the summed cell busy time divided by the
// capacity the pool offered: total step wall time times workers.
func parallelEfficiency(busy, wall float64, workers int) float64 {
	if wall <= 0 || workers <= 0 {
		return 0
	}
	return busy / (wall * float64(workers))
}
