package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
	} {
		_, err := percentile(seq(tc.n), tc.q)
		if (err == nil) != tc.want {
			t.Errorf("p%g of %d samples: err %v, want ok=%v", tc.q*100, tc.n, err, tc.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := seq(100) // 1..100
	for _, tc := range []struct{ q, want float64 }{{0.5, 50.5}, {0.9, 90.1}} {
		got, err := percentile(xs, tc.q)
		if err != nil || math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("p%g = %v, %v; want %v", tc.q*100, got, err, tc.want)
		}
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
}

func TestSummarizeQuartiles(t *testing.T) {
	s := summarize(seq(5)) // 1..5
	if s.N != 5 || s.Q1 != 2 || s.Median != 3 || s.Q3 != 4 {
		t.Errorf("summary of 1..5 = n %d, %v/%v/%v; want 5, 2/3/4", s.N, s.Q1, s.Median, s.Q3)
	}
}
