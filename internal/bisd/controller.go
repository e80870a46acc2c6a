package bisd

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/march"
	"repro/internal/serial"
)

// The shared BISD controller of Fig. 3, decomposed into the blocks the
// figure names. Each block is deliberately small; together they drive
// the per-memory SPC/PSC pairs in the proposed engine.

// AddressTrigger enables the local address generators and steps them
// through a March element's address order. The controller is designed
// for the largest memory (Sec. 3.1): it issues nMax logical addresses
// and each local generator wraps them into its own range.
type AddressTrigger struct {
	nMax int
	up   []int
	down []int
}

// NewAddressTrigger returns a trigger sized for the largest memory.
func NewAddressTrigger(nMax int) *AddressTrigger {
	if nMax <= 0 {
		panic(fmt.Sprintf("bisd: invalid trigger size %d", nMax))
	}
	return &AddressTrigger{nMax: nMax, up: march.Up.Addresses(nMax), down: march.Down.Addresses(nMax)}
}

// Sequence returns the logical address visit order for an element. The
// slice is shared and precomputed; callers must not modify it.
func (a *AddressTrigger) Sequence(o march.Order) []int {
	if o == march.Down {
		return a.down
	}
	return a.up
}

// LocalAddressGenerator is the per-memory address counter; it wraps the
// controller's logical address into the memory's smaller range, the
// wrap-around behaviour of Sec. 3.1.
type LocalAddressGenerator struct {
	n int
}

// NewLocalAddressGenerator returns a generator for an n-word memory.
func NewLocalAddressGenerator(n int) *LocalAddressGenerator {
	return &LocalAddressGenerator{n: n}
}

// Map converts a logical address to the physical address, wrapping.
func (g *LocalAddressGenerator) Map(logical int) int { return logical % g.n }

// Wrapped reports whether the logical address has wrapped at least once.
func (g *LocalAddressGenerator) Wrapped(logical int) bool { return logical >= g.n }

// BackgroundGenerator is the Data Background Generator: it serializes
// the background pattern of the widest memory, MSB first (Sec. 3.2), or
// LSB first when configured to demonstrate the Fig. 4 hazard. The
// pattern set is generated once at construction, so Pattern is a table
// lookup and the per-element loop stays allocation-free.
type BackgroundGenerator struct {
	cMax     int
	order    serial.Order
	patterns []bitvec.Vector
}

// NewBackgroundGenerator returns a generator for the widest IO width.
func NewBackgroundGenerator(cMax int, order serial.Order) *BackgroundGenerator {
	if cMax <= 0 {
		panic(fmt.Sprintf("bisd: invalid background width %d", cMax))
	}
	return &BackgroundGenerator{cMax: cMax, order: order, patterns: bitvec.Backgrounds(cMax)}
}

// Pattern returns background bg (index into bitvec.Backgrounds) at the
// widest width. The returned vector is shared; callers must not modify
// it.
func (b *BackgroundGenerator) Pattern(bg int) bitvec.Vector {
	return b.patterns[bg]
}

// Deliver streams the pattern into every SPC; this is the once-per-
// element serial delivery and costs cMax cycles.
func (b *BackgroundGenerator) Deliver(pattern bitvec.Vector, spcs []*serial.SPC) int {
	for _, s := range spcs {
		s.Deliver(pattern, b.order)
	}
	return b.cMax
}

// ComparatorArray compares, bit by bit, each memory's serialized
// response against the expected value and registers the diagnosis
// information. The expected state lives in a per-memory shadow of what
// a fault-free memory would hold; because the shadow is updated on
// every (possibly redundant, wrapped) write, the comparison tolerates
// the address wrap-around of smaller memories (Sec. 3.1).
type ComparatorArray struct {
	// expected[i][addr] is the fault-free word of memory i.
	expected [][]bitvec.Vector
	// diffBuf is the reusable failing-bit scratch Compare returns.
	diffBuf []int
}

// newComparatorArray sizes the shadow state for the fleet.
func newComparatorArray(geoms []geometry) *ComparatorArray {
	ca := &ComparatorArray{expected: make([][]bitvec.Vector, len(geoms))}
	for i, g := range geoms {
		ca.expected[i] = bitvec.NewMatrix(g.c, g.n)
	}
	return ca
}

// Reset zeroes every shadow word — the state of a fresh fleet — so a
// reusable runner can diagnose the next device without reallocating
// the array.
func (ca *ComparatorArray) Reset() {
	for _, mem := range ca.expected {
		for _, w := range mem {
			w.Fill(false)
		}
	}
}

// NoteWrite updates the shadow for a write of word to memory i at the
// physical address, reusing the preallocated shadow vector.
func (ca *ComparatorArray) NoteWrite(i, physAddr int, word bitvec.Vector) {
	ca.expected[i][physAddr].CopyFrom(word)
}

// Expected returns the shadow word for memory i at the physical address.
func (ca *ComparatorArray) Expected(i, physAddr int) bitvec.Vector {
	return ca.expected[i][physAddr]
}

// Compare checks a drained response word against the shadow and returns
// the failing bit positions. The returned slice is a reusable scratch,
// valid until the next Compare call on this array.
func (ca *ComparatorArray) Compare(i, physAddr int, got bitvec.Vector) []int {
	want := ca.expected[i][physAddr]
	if got.Equal(want) {
		return nil
	}
	ca.diffBuf = ca.diffBuf[:0]
	got.ForEachDiff(want, func(b int) {
		ca.diffBuf = append(ca.diffBuf, b)
	})
	return ca.diffBuf
}

// ControlGenerator produces the per-op control signals: read/write
// enables, the scan_en for the PSCs (the one extra global wire the
// proposed scheme adds, Sec. 4.3) and the global NWRTM precharge-
// disable line (Sec. 3.4).
type ControlGenerator struct {
	// NWRTMWired reports whether the fleet has the NWRTM DFT hook; a
	// test containing NWRC ops requires it.
	NWRTMWired bool
}

// Check validates that the test's control needs are wired.
func (cg *ControlGenerator) Check(t march.Test) error {
	if t.HasNWRC() && !cg.NWRTMWired {
		return fmt.Errorf("bisd: test %q needs the NWRTM control wire, which is not present", t.Name)
	}
	return nil
}
