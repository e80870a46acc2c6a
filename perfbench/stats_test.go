package main

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

// A tail percentile is emitted only when at least ten samples lie
// beyond it, and the note always states the sample count.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n        int
		hasTail  bool
		beyond   int
		tail     float64
		countSub string
	}{
		{n: 999, hasTail: false, beyond: 9},
		{n: 1000, hasTail: true, beyond: 10, tail: 990},
		{n: 2000, hasTail: true, beyond: 20, tail: 1980},
		{n: 5, hasTail: false, beyond: 0},
	} {
		s := summarize(seq(tc.n), 0.99)
		if s.hasTail != tc.hasTail || s.beyond != tc.beyond || s.n != tc.n {
			t.Errorf("n=%d: hasTail=%v beyond=%d n=%d, want %v %d %d", tc.n, s.hasTail, s.beyond, s.n, tc.hasTail, tc.beyond, tc.n)
		}
		if tc.hasTail && s.tail != tc.tail {
			t.Errorf("n=%d: p99=%v, want %v", tc.n, s.tail, tc.tail)
		}
		if note := s.countNote("jobs"); !strings.Contains(note, "n=") {
			t.Errorf("n=%d: count note %q states no count", tc.n, note)
		}
		if note := s.tailNote("jobs"); !strings.Contains(note, "beyond p99") {
			t.Errorf("n=%d: tail note %q", tc.n, note)
		}
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := summarize(seq(4), 0.99).p50; got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := summarize(seq(5), 0.99).p50; got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.75); got != 3 {
		t.Errorf("nearest-rank p75 of 1..4 = %v, want 3", got)
	}
}
