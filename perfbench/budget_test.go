package main

import (
	"math"
	"testing"
)

// The budget rows plus the residual always add up to the end-to-end
// per-device time, whatever sign the level differences take.
func TestBudgetRowsPlusResidualEqualEndToEnd(t *testing.T) {
	b := budget{
		e2e:     203.4,
		rows:    []budgetRow{{"build", 6.6}, {"bank", 53.8}, {"encode", 22.4}, {"manager", -0.3}, {"http", 97.7}},
		overlap: []budgetRow{{"wait", 156}},
	}
	total := b.residual()
	for _, r := range b.rows {
		total += r.us
	}
	if math.Abs(total-b.e2e) > 1e-9 {
		t.Fatalf("rows + residual = %v, want end to end %v", total, b.e2e)
	}
	if math.Abs(b.residual()-(203.4-180.2)) > 1e-9 {
		t.Fatalf("residual = %v; overlapping rows must not be summed", b.residual())
	}
}
