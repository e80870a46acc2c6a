// Package march represents March memory-test algorithms: sequences of
// March elements, each an address order plus a list of per-address
// read/write operations. It provides the algorithms the paper uses —
// March C-, March CW (multi-background), the serialized DiagRSMarch of
// the baseline scheme [7,8] — and the NWRTM merge of Sec. 3.4 that
// folds data-retention-fault detection into a March test with two extra
// No Write Recovery Cycles.
//
// Data operands are expressed relative to the current data background
// D: wD writes the background, w~D its complement; the classic single-
// background notation w0/w1 is the special case of a solid background.
package march

import (
	"fmt"
	"iter"
	"strings"

	"repro/internal/bitvec"
)

// Order is the address order of a March element.
type Order int

const (
	// Any means the element may run in either direction (⇕); engines
	// run it ascending.
	Any Order = iota
	// Up runs addresses ascending (⇑).
	Up
	// Down runs addresses descending (⇓).
	Down
)

// String renders the order as its March-notation arrow.
func (o Order) String() string {
	switch o {
	case Up:
		return "⇑"
	case Down:
		return "⇓"
	default:
		return "⇕"
	}
}

// Addresses expands the order into the visit sequence of an n-word
// address space: descending for Down, ascending otherwise.
func (o Order) Addresses(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
		if o == Down {
			out[i] = n - 1 - i
		}
	}
	return out
}

// OpKind is the kind of a March operation.
type OpKind int

const (
	// Read reads the word and compares against the expected value.
	Read OpKind = iota
	// Write writes the word normally.
	Write
	// WriteNWRC writes the word with a No Write Recovery Cycle: the
	// bitline precharge is disabled (NWRTM asserted), so a cell with
	// an open pull-up PMOS fails to flip (Sec. 3.4).
	WriteNWRC
	// WriteWeak writes the word with the Weak Write Test Mode of
	// [14,15], the DFT alternative Sec. 3.4 contrasts NWRTM with: the
	// bitlines are driven too weakly to flip a healthy cell, so only a
	// stability-compromised (data-retention-faulty) cell flips. A weak
	// write is NOT a functional write — good cells keep their value —
	// so WWTM cannot be merged into a March test's data flow and needs
	// dedicated verify reads.
	WriteWeak
)

// Op is a single March operation on the word at the current address.
type Op struct {
	Kind OpKind
	// Inverted selects the complemented data background (~D). A read
	// expects D (or ~D); a write stores it.
	Inverted bool
}

// String renders the op in March notation relative to a solid-0
// background: r0/r1, w0/w1, n0/n1 (NWRC write). With Inverted false the
// operand is D (printed 0), with true ~D (printed 1).
func (op Op) String() string {
	var k byte
	switch op.Kind {
	case Read:
		k = 'r'
	case Write:
		k = 'w'
	case WriteWeak:
		k = 'k'
	default:
		k = 'n'
	}
	d := byte('0')
	if op.Inverted {
		d = '1'
	}
	return string([]byte{k, d})
}

// R, W, N and K are op constructors: R(false) is rD (r0 on a solid
// background), W(true) is w~D, N(v) is the NWRC write, K(v) the weak
// write.
func R(inverted bool) Op { return Op{Kind: Read, Inverted: inverted} }

// W returns a normal write op; see R.
func W(inverted bool) Op { return Op{Kind: Write, Inverted: inverted} }

// N returns an NWRC write op; see R.
func N(inverted bool) Op { return Op{Kind: WriteNWRC, Inverted: inverted} }

// K returns a weak (WWTM) write op; see R.
func K(inverted bool) Op { return Op{Kind: WriteWeak, Inverted: inverted} }

// Element is one March element: an address order and the operations
// applied at each address before moving to the next. DelayMs, when
// non-zero, inserts a retention pause before the element runs — the
// "Del" annotation of delay-based retention tests such as the
// (w0/r0)R+L, (w1/r1)R+L pair with 100 ms pauses that the baseline
// scheme would need for DRFs (Sec. 4.2).
type Element struct {
	Order   Order
	Ops     []Op
	DelayMs float64
}

// String renders the element, e.g. "⇑(r0,w1)".
func (e Element) String() string {
	parts := make([]string, len(e.Ops))
	for i, op := range e.Ops {
		parts[i] = op.String()
	}
	return fmt.Sprintf("%s(%s)", e.Order, strings.Join(parts, ","))
}

// Reads returns the number of read ops in the element.
func (e Element) Reads() int {
	n := 0
	for _, op := range e.Ops {
		if op.Kind == Read {
			n++
		}
	}
	return n
}

// Writes returns the number of write ops (normal and NWRC).
func (e Element) Writes() int { return len(e.Ops) - e.Reads() }

// Test is a complete March test.
type Test struct {
	// Name identifies the algorithm, e.g. "March C-".
	Name string
	// Elements is the element sequence.
	Elements []Element
	// BackgroundCount is how many data backgrounds the test iterates
	// over; 1 for single-background tests. Engines repeat per-
	// background elements (those with PerBackground true in the same
	// index position) once per background.
	BackgroundCount int
	// PerBackground marks, per element index, whether the element is
	// repeated once per *non-solid* background (true) — i.e.
	// BackgroundCount-1 times, over backgrounds 1..BackgroundCount-1 —
	// or runs once on the solid background (false). Nil means all
	// elements run once on the solid background.
	PerBackground []bool
}

// String renders the full element sequence.
func (t Test) String() string {
	parts := make([]string, len(t.Elements))
	for i, e := range t.Elements {
		parts[i] = e.String()
	}
	return fmt.Sprintf("%s: {%s}", t.Name, strings.Join(parts, "; "))
}

// Complexity summarises operation counts for an n-word memory,
// accounting for background repetition.
type Complexity struct {
	// Reads and Writes are totals over the whole test (all
	// backgrounds), for n words.
	Reads, Writes int
	// Elements is the total number of element executions (delivery
	// events in the proposed scheme: each element execution needs one
	// serial background delivery).
	Elements int
}

// Ops returns total operations.
func (c Complexity) Ops() int { return c.Reads + c.Writes }

// ComplexityFor computes the operation counts of the test on an n-word
// memory.
func (t Test) ComplexityFor(n int) Complexity {
	var cx Complexity
	for i, e := range t.Elements {
		times := 1
		if t.Repeated(i) {
			times = t.BackgroundCount - 1
		}
		cx.Reads += times * n * e.Reads()
		cx.Writes += times * n * e.Writes()
		cx.Elements += times
	}
	return cx
}

// Repeated reports whether element i runs once per non-solid background.
func (t Test) Repeated(i int) bool {
	if t.BackgroundCount <= 1 || t.PerBackground == nil {
		return false
	}
	return t.PerBackground[i]
}

// Step is one element execution of a test's expanded schedule.
type Step struct {
	// Exec is the execution index, counting from 0 in run order; the
	// engines' failure records carry it as their element index.
	Exec int
	// Index is the element's position in Test.Elements.
	Index int
	// Element is Test.Elements[Index].
	Element Element
	// Background is the data background the element runs with, an
	// index into bitvec.Backgrounds.
	Background int
}

// Steps yields the element executions of the test, in run order, on a
// controller of IO width width. Elements that are not Repeated run once
// on the solid background 0. Each maximal run of consecutive Repeated
// elements runs as a group on every background 1..n-1, where
// n = min(BackgroundCount, bitvec.NumBackgrounds(width)): the Data
// Background Generator has no pattern past the widest memory's last.
// Uncapped, the step count is ComplexityFor(1).Elements.
//
// Steps itself only returns the closure, so it inlines and a range over
// it allocates nothing on the engines' per-run path.
func (t Test) Steps(width int) iter.Seq[Step] {
	return func(yield func(Step) bool) {
		nBgs, exec := min(t.BackgroundCount, bitvec.NumBackgrounds(width)), 0
		for i := 0; i < len(t.Elements); {
			// Elements i..j-1 run as a group on backgrounds first..last-1:
			// a lone element on the solid background, or a maximal run
			// of Repeated elements on every non-solid one.
			j, first, last := i+1, 0, 1
			if t.Repeated(i) {
				for j < len(t.Elements) && t.Repeated(j) {
					j++
				}
				first, last = 1, nBgs
			}
			for bg := first; bg < last; bg++ {
				for k := i; k < j; k++ {
					if !yield(Step{Exec: exec, Index: k, Element: t.Elements[k], Background: bg}) {
						return
					}
					exec++
				}
			}
			i = j
		}
	}
}

// HasNWRC reports whether the test contains any NWRC write, i.e.
// whether it requires the NWRTM DFT hook.
func (t Test) HasNWRC() bool {
	for _, e := range t.Elements {
		for _, op := range e.Ops {
			if op.Kind == WriteNWRC {
				return true
			}
		}
	}
	return false
}

// Validate checks structural sanity: non-empty elements, and that
// PerBackground (if set) matches the element count.
func (t Test) Validate() error {
	if len(t.Elements) == 0 {
		return fmt.Errorf("march: %s has no elements", t.Name)
	}
	for i, e := range t.Elements {
		if len(e.Ops) == 0 {
			return fmt.Errorf("march: %s element %d is empty", t.Name, i)
		}
	}
	if t.PerBackground != nil && len(t.PerBackground) != len(t.Elements) {
		return fmt.Errorf("march: %s PerBackground length %d != %d elements",
			t.Name, len(t.PerBackground), len(t.Elements))
	}
	if t.BackgroundCount < 1 {
		return fmt.Errorf("march: %s background count %d < 1", t.Name, t.BackgroundCount)
	}
	return nil
}
