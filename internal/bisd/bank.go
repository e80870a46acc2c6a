package bisd

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/march"
	"repro/internal/sram"
)

// BankRunner executes the proposed diagnosis scheme over a bit-sliced
// fleet batch: up to sram.BankLanes same-plan devices, one per uint64
// bit lane of a sram.MemoryBank per memory, advance through a single
// March schedule pass together. The shared controller (schedule) is
// scalar and fault-independent, so it runs once per batch; only the
// banks' sparse special cells carry per-lane fault semantics.
//
// The scheme's expected state is kept in two scalar shadows:
//
//   - written[i][addr] is the word every fault-free lane of memory i
//     holds — the SPC delivered it to all lanes alike;
//   - the comparator array's expected word is the controller's intent,
//     DP[c_i-1:0].
//
// Under MSB-first delivery the two coincide and a clean cell can never
// miscompare, so a read only examines the row's special cells. Under
// the hazardous LSB-first order they diverge and whole lanes fail at
// the scalar diff bits; that rare path walks the full word, merging
// special and clean bits in ascending order so the failure records
// stay byte-identical to the per-device path's.
//
// Every lane's Report is byte-identical to what ProposedRunner.Run
// would produce for that device alone (pinned by the bisd and memtest
// differential suites). A BankRunner is not safe for concurrent use;
// give each fleet worker its own.
type BankRunner struct {
	schedule
	colls   []*collector // one per lane
	written [][]bitvec.Vector
	// Per-read special-cell scratch.
	senseBits []int32
	senseVals []uint64
}

// banked is the BankRunner's datapath for one Run.
type banked struct {
	*BankRunner
	banks    []*sram.MemoryBank
	laneMask uint64 // the loaded lanes
}

// NewBankRunner returns an empty runner; the first Run sizes it.
func NewBankRunner() *BankRunner { return &BankRunner{} }

// Run executes one banked batch: the devices loaded into bank lanes
// [0, lanes) run the March schedule once, word-wide across lanes, and
// one Report per lane comes back. Cycle and retention accounting is
// analytic and fault-independent, so it is computed once and stamped
// into every lane's report — exactly what each device's solo run would
// have accumulated. opt.Trace is ignored: fleet batches run untraced,
// as fleet workers do on the per-device path.
func (r *BankRunner) Run(banks []*sram.MemoryBank, lanes int, test march.Test, opt ProposedOptions) ([]*Report, error) {
	if len(banks) == 0 {
		return nil, fmt.Errorf("bisd: empty fleet")
	}
	if lanes < 1 || lanes > sram.BankLanes {
		return nil, fmt.Errorf("bisd: bank lanes %d out of range [1, %d]", lanes, sram.BankLanes)
	}
	if fit(&r.schedule, banks, opt.DeliveryOrder) {
		r.colls = make([]*collector, sram.BankLanes)
		for l := range r.colls {
			r.colls[l] = newCollector(r.geoms)
		}
		r.written = make([][]bitvec.Vector, len(banks))
		for i, g := range r.geoms {
			r.written[i] = bitvec.NewMatrix(g.c, g.n)
		}
	} else {
		for _, c := range r.colls {
			c.reset(r.geoms)
		}
		for _, mem := range r.written {
			for _, w := range mem {
				w.Fill(false)
			}
		}
	}
	opt.Trace = nil
	cycles, retentionNs, err := run(&r.schedule, banked{r, banks, ^uint64(0) >> uint(64-lanes)}, test, opt)
	if err != nil {
		return nil, err
	}
	reports := make([]*Report, lanes)
	for l := range reports {
		reports[l] = proposedReport(opt, cycles, retentionNs, r.colls[l].finish())
	}
	return reports, nil
}

func (d banked) hold(ms float64) {
	for _, b := range d.banks {
		b.Hold(ms)
	}
}

func (d banked) write(kind march.OpKind, phys []int, words []bitvec.Vector) {
	for i, b := range d.banks {
		switch kind {
		case march.WriteWeak:
			// A weak write cannot change a fault-free cell, so the
			// written shadow is untouched.
			b.WriteWeak(phys[i], words[i])
			continue
		case march.WriteNWRC:
			b.WriteNWRC(phys[i], words[i])
		default:
			b.Write(phys[i], words[i])
		}
		d.written[i][phys[i]].CopyFrom(words[i])
	}
}

func (d banked) read(at FailureRecord, phys []int, _ int64) {
	for i, b := range d.banks {
		at.Memory, at.PhysicalAddr = i, phys[i]
		wrote, want := d.written[i][phys[i]], d.comp.Expected(i, phys[i])
		d.senseBits, d.senseVals = b.SenseRow(phys[i], d.senseBits[:0], d.senseVals[:0])
		if wrote.Equal(want) {
			// Clean cells sense exactly the expected bit, so only the
			// row's special cells can miscompare (ascending, like
			// ForEachDiff).
			for si, bit := range d.senseBits {
				d.recordMismatch(d.senseVals[si]^bitvec.LaneMask(want.Get(int(bit))), at, int(bit))
			}
			continue
		}
		// Delivery hazard (Fig. 4, LSB-first short word): clean cells
		// hold the delivered word while the comparator expects the
		// intended one, so every lane fails at the scalar diff bits.
		// Merge special and clean bits in ascending order to keep
		// records byte-identical.
		si := 0
		for bit := 0; bit < b.C(); bit++ {
			var sensed uint64
			if si < len(d.senseBits) && int(d.senseBits[si]) == bit {
				sensed = d.senseVals[si]
				si++
			} else {
				sensed = bitvec.LaneMask(wrote.Get(bit))
			}
			d.recordMismatch(sensed^bitvec.LaneMask(want.Get(bit)), at, bit)
		}
	}
}

// recordMismatch registers the failing bit for every loaded lane set
// in mism.
func (d banked) recordMismatch(mism uint64, at FailureRecord, bit int) {
	mism &= d.laneMask
	at.Bit = bit
	for mism != 0 {
		l := bits.TrailingZeros64(mism)
		mism &= mism - 1
		d.colls[l].record(at)
	}
}
