package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func sumDurations(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func scaled(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func seconds64(ds []time.Duration) []float64 { return scaled(ds, time.Second) }
func millis(ds []time.Duration) []float64    { return scaled(ds, time.Millisecond) }
func micros(ds []time.Duration) []float64    { return scaled(ds, time.Microsecond) }
