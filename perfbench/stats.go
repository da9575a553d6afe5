package main

import (
	"math"
	"sort"
)

// quantile is the p-quantile of xs by the exclusive method (Python's
// statistics.quantiles default): position p*(n+1), interpolated.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p * float64(len(s)+1)
	switch {
	case pos <= 1:
		return s[0]
	case pos >= float64(len(s)):
		return s[len(s)-1]
	}
	i := int(pos)
	frac := pos - float64(i)
	return s[i-1] + frac*(s[i]-s[i-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns Q1, median, Q3.
func quartiles(xs []float64) [3]float64 {
	return [3]float64{quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
