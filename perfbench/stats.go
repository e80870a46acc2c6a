package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile before
// it is reported: fewer than ten makes the tail a handful of outliers.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted:
// the smallest sample with at least a q share of the samples at or
// below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)-1]
}

// rank is the 1-based nearest-rank position of the q-quantile among n
// samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// beyond counts the samples that lie above the nearest-rank q-quantile
// of n samples.
func beyond(n int, q float64) int { return n - rank(n, q) }

// summary is a timing distribution reduced to what the benchmark
// reports: the median always, a tail percentile only when at least
// minBeyond samples lie beyond it, and always the sample count.
type summary struct {
	n       int
	p50     float64
	tailQ   float64 // the requested tail quantile, e.g. 0.99
	tail    float64
	hasTail bool
	beyond  int // samples beyond the tail quantile
}

// summarize reduces samples (not modified) to a summary with the
// given tail quantile.
func summarize(samples []float64, tailQ float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{n: len(s), tailQ: tailQ, p50: math.NaN(), tail: math.NaN()}
	if len(s) == 0 {
		return out
	}
	out.p50 = median(s)
	out.beyond = beyond(len(s), tailQ)
	if out.beyond >= minBeyond {
		out.tail, out.hasTail = quantile(s, tailQ), true
	}
	return out
}

// median of sorted samples, averaging the middle pair for even counts.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf returns the median of unsorted samples.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// tailLabel names the tail percentile, e.g. "p99".
func (s summary) tailLabel() string {
	return fmt.Sprintf("p%g", s.tailQ*100)
}

// countNote is the sample-count note printed next to a timing.
func (s summary) countNote(what string) string { return fmt.Sprintf("n=%d %s", s.n, what) }

// tailNote is the note printed next to the tail percentile: the sample
// count and how many samples lie beyond it.
func (s summary) tailNote(what string) string {
	return fmt.Sprintf("n=%d %s, %d beyond %s", s.n, what, s.beyond, s.tailLabel())
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never enters).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
