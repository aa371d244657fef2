package main

import (
	"math"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1000, 99}, {200, 95}, {199, 94}, {100, 90}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%d has only %d samples beyond", c.n, p, beyond(c.n, p))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for _, c := range []struct {
		p    int
		want float64
	}{{50, 100}, {95, 190}, {99, 198}, {100, 200}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%d = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v", got)
	}
}

func TestCostRatioUsesFinalQuarter(t *testing.T) {
	chosen := []float64{500, 400, 300, 200, 110, 105, 130, 150}
	oracle := []float64{100, 100, 100, 100, 100, 100, 100, 120}
	// Final quarter: 130/100 and 150/120.
	want := (1.3 + 1.25) / 2
	if got := costRatio(chosen, oracle); math.Abs(got-want) > 1e-12 {
		t.Errorf("costRatio = %v, want %v", got, want)
	}
	// Fewer than four periods: every period counts.
	if got := costRatio([]float64{90, 110}, []float64{100, 100}); math.Abs(got-1) > 1e-12 {
		t.Errorf("short costRatio = %v, want 1", got)
	}
}

func TestStragglerRatio(t *testing.T) {
	steps := [][]float64{{2, 2, 2, 2}, {1, 3}, {1, 1, 4}}
	// Per step: 1, 3/2, 4/2.
	want := (1 + 1.5 + 2) / 3.0
	if got := stragglerRatio(steps); math.Abs(got-want) > 1e-12 {
		t.Errorf("stragglerRatio = %v, want %v", got, want)
	}
}

func TestParallelEfficiency(t *testing.T) {
	if got := parallelEfficiency(30, 20, 2); got != 0.75 {
		t.Errorf("efficiency = %v, want 0.75", got)
	}
	if got := parallelEfficiency(30, 0, 2); got != 0 {
		t.Errorf("efficiency with no wall time = %v, want 0", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, med, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 4", q1, med, q3)
	}
}
