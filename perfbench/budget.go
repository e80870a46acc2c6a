package main

import (
	"fmt"
	"io"
)

// budgetRow is one layer's share of a delivered device's host time, in
// wall-clock microseconds.
type budgetRow struct {
	name string
	us   float64
}

// budget is a per-device time budget: what each layer costs, what the
// whole path costs end to end, and the residual no layer accounts for.
type budget struct {
	title string
	e2e   float64     // end-to-end wall µs per delivered device
	rows  []budgetRow // additive layer costs
	// overlap lists costs that run concurrently with the rows (a
	// consumer waiting while workers compute); they are shown, never
	// summed.
	overlap []budgetRow
}

// residual is the end-to-end time the layer rows leave unexplained.
func (b budget) residual() float64 {
	r := b.e2e
	for _, row := range b.rows {
		r -= row.us
	}
	return r
}

func (b budget) print(w io.Writer) {
	fmt.Fprintf(w, "budget %s\n", b.title)
	fmt.Fprintf(w, "  %-44s %12s %8s\n", "layer", "us/device", "share")
	share := func(us float64) string { return fmt.Sprintf("%7.1f%%", 100*ratio(us, b.e2e)) }
	for _, r := range b.rows {
		fmt.Fprintf(w, "  %-44s %12.2f %s\n", r.name, r.us, share(r.us))
	}
	fmt.Fprintf(w, "  %-44s %12.2f %s\n", "residual (not in any row)", b.residual(), share(b.residual()))
	fmt.Fprintf(w, "  %-44s %12.2f %s\n", "end to end", b.e2e, share(b.e2e))
	for _, r := range b.overlap {
		fmt.Fprintf(w, "  %-44s %12.2f (overlaps the rows; not summed)\n", r.name, r.us)
	}
}
