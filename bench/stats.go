package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mixQuantile is the q-quantile of a workload's mix: Σ share·quantile over
// its query kinds, by kind. Kinds without samples are left out and the
// other shares scaled up to sum to 1.
func mixQuantile(byKind [][]float64, shares []float64, q float64) float64 {
	var sum, total float64
	for k, xs := range byKind {
		if len(xs) == 0 {
			continue
		}
		sum += shares[k] * quantile(xs, q)
		total += shares[k]
	}
	return ratio(sum, total)
}

// shares scales weights to sum to 1.
func shares(weights []int) []float64 {
	var total int
	for _, w := range weights {
		total += w
	}
	out := make([]float64, len(weights))
	for i, w := range weights {
		out[i] = ratio(float64(w), float64(total))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
