package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile:
// p90 needs at least 100 samples, p99 at least 1000. A percentile with
// fewer samples behind it is one or two outliers, not a distribution.
const minTail = 10

// summary is one metric's samples reduced to what a result reports.
type summary struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted samples,
// interpolating linearly between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailCount is how many of n samples lie beyond the q-quantile.
func tailCount(n int, q float64) int {
	return int(math.Floor(float64(n)*(1-q) + 1e-9))
}

// percentile returns the q-quantile of samples, refusing one that fewer
// than minTail samples lie beyond (for q = 0.5 that means n ≥ 20).
func percentile(samples []float64, q float64) (float64, error) {
	if tailCount(len(samples), q) < minTail {
		return 0, fmt.Errorf("p%g of %d samples: fewer than %d samples beyond it", q*100, len(samples), minTail)
	}
	s := sortedCopy(samples)
	return quantile(s, q), nil
}

// summarize computes the sample count, quartiles and median.
func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	s := sortedCopy(samples)
	return summary{N: len(s), Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75)}
}

func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return quantile(sortedCopy(samples), 0.5)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
