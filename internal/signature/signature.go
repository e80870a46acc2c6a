// Package signature implements response compaction for go/no-go
// memory BIST: a linear-feedback shift register (LFSR) and a multiple-
// input signature register (MISR). It exists as the contrast to
// diagnosis: compacting responses into one signature answers
// pass/fail with near-zero storage but destroys the per-cell failure
// information the paper's scheme registers for repair — and suffers
// aliasing. Only its own tests use it, as a worked contrast to what
// the bit-by-bit comparator array of Fig. 3 buys.
package signature

import (
	"fmt"

	"repro/internal/bitvec"
)

// LFSR is a Fibonacci linear-feedback shift register with a
// caller-supplied tap mask. Bit 0 is the output end.
type LFSR struct {
	state, taps uint64
	width       int
}

// NewLFSR returns an LFSR of the given width (1..64) with the given
// tap mask and a non-zero seed.
func NewLFSR(width int, taps, seed uint64) *LFSR {
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("signature: LFSR width %d", width))
	}
	mask := ^uint64(0) >> uint(64-width)
	if seed&mask == 0 {
		seed = 1
	}
	return &LFSR{state: seed & mask, taps: taps & mask, width: width}
}

// Default16 returns a maximal-length 16-bit LFSR using the classic
// x^16 + x^14 + x^13 + x^11 + 1 polynomial (tap mask 0x002D in this
// shift-right formulation).
func Default16(seed uint64) *LFSR {
	return NewLFSR(16, 0x002D, seed)
}

// State returns the current register contents.
func (l *LFSR) State() uint64 { return l.state }

// Step advances one clock and returns the output bit.
func (l *LFSR) Step() bool {
	out := l.state&1 == 1
	fb := parity64(l.state & l.taps)
	l.state >>= 1
	if fb {
		l.state |= 1 << uint(l.width-1)
	}
	return out
}

// Period steps the register until the state repeats and returns the
// cycle length — 2^width-1 for a maximal-length tap set.
func (l *LFSR) Period() int {
	start := l.state
	n := 0
	for {
		l.Step()
		n++
		if l.state == start {
			return n
		}
		if n > 1<<uint(l.width) {
			return n // non-maximal; bail out
		}
	}
}

func parity64(x uint64) bool {
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return x&1 == 1
}

// MISR is a multiple-input signature register: each clock it absorbs a
// whole response word XORed into the shifted state.
type MISR struct {
	lfsr  *LFSR
	width int
}

// NewMISR returns a MISR of the given width with the given taps.
func NewMISR(width int, taps uint64) *MISR {
	return &MISR{lfsr: NewLFSR(width, taps, 1), width: width}
}

// Width returns the register width.
func (m *MISR) Width() int { return m.width }

// Absorb folds a response word into the signature. Words wider than
// the register are folded by XOR of width-sized chunks.
func (m *MISR) Absorb(word bitvec.Vector) {
	var in uint64
	for i := 0; i < word.Width(); i++ {
		if word.Get(i) {
			in ^= 1 << uint(i%m.width)
		}
	}
	m.lfsr.Step()
	m.lfsr.state ^= in & (^uint64(0) >> uint(64-m.width))
}

// Signature returns the accumulated signature.
func (m *MISR) Signature() uint64 { return m.lfsr.State() }

// AliasingProbability returns the asymptotic probability that a faulty
// response stream produces the fault-free signature: 2^-width.
func AliasingProbability(width int) float64 {
	return 1 / float64(uint64(1)<<uint(width))
}
