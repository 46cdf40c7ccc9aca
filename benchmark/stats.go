package main

import (
	"math"
	"sort"
	"time"
)

// timing summarises the samples of one timed call site: the median, the
// quartiles and the 95th percentile in seconds, with the sample count.
type timing struct {
	Median float64 `json:"median_s"`
	Q1     float64 `json:"q1_s"`
	Q3     float64 `json:"q3_s"`
	P95    float64 `json:"p95_s"`
	N      int     `json:"n"`
}

func summarize(samples []time.Duration) timing {
	if len(samples) == 0 {
		return timing{}
	}
	s := make([]float64, len(samples))
	for i, d := range samples {
		s[i] = d.Seconds()
	}
	sort.Float64s(s)
	return timing{
		Median: quantile(s, 0.5),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		P95:    quantile(s, 0.95),
		N:      len(s),
	}
}

// quantile interpolates linearly between the order statistics of a sorted
// sample (position q·(n−1)).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// quantileOf is quantile on an unsorted sample.
func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

func medianDuration(samples []time.Duration) time.Duration {
	return time.Duration(summarize(samples).Median * float64(time.Second))
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) (the
// exclusive method, positions i·(n+1)/4), which is how the acceptance check
// measures the spread of a set of runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		j = max(1, min(j, n-1))
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// eq3 is the paper's Equation (3) flop count of a P×Q×R multiplication.
func eq3(p, q, r int) float64 {
	return 2*float64(p)*float64(q)*float64(r) - float64(p)*float64(r)
}
