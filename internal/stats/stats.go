// Package stats provides the small statistical toolkit the evaluation
// harness uses: sample means with 95% confidence intervals (the error bars
// of Fig. 7) and geometric means (the aggregates of Fig. 9). It also holds
// Counters, the counter block both timing cores keep and the harness folds.
package stats

import (
	"fmt"
	"math"
)

// tTable95 holds two-sided 95% critical values of Student's t distribution
// for small degrees of freedom; larger samples fall back to the normal 1.96.
var tTable95 = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
	2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
}

// Summary describes a sample: its mean and the half-width of the 95%
// confidence interval of the mean.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	CI95   float64 // half-width; Mean ± CI95 is the interval
}

// String renders "mean ± ci".
func (s Summary) String() string { return fmt.Sprintf("%.3f ± %.3f", s.Mean, s.CI95) }

// Summarize computes the sample summary. With fewer than two samples the
// interval is zero (no variance estimate).
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) < 2 {
		return s
	}
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Stddev = math.Sqrt(ss / float64(len(xs)-1))
	df := len(xs) - 1
	t := 1.96
	if df < len(tTable95) {
		t = tTable95[df]
	}
	s.CI95 = t * s.Stddev / math.Sqrt(float64(len(xs)))
	return s
}

// Mean returns the arithmetic mean (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Geomean returns the geometric mean of positive values; zero or negative
// inputs are skipped (they would be log-domain poison), and an empty or
// fully skipped sample yields 0.
func Geomean(xs []float64) float64 {
	var logSum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
