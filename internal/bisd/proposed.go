package bisd

import (
	"context"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/march"
	"repro/internal/serial"
	"repro/internal/sram"
	"repro/internal/trace"
)

// ProposedOptions configures the proposed-scheme engine.
type ProposedOptions struct {
	// ClockNs is the diagnosis clock period t in nanoseconds (10 ns in
	// the paper's case study). Zero defaults to 10.
	ClockNs float64
	// DeliveryOrder is the background serialization order. MSBFirst is
	// the paper's design; LSBFirst reproduces the Fig. 4 coverage
	// hazard for heterogeneous widths.
	DeliveryOrder serial.Order
	// DisableNWRTM removes the NWRTM control wire; running a test with
	// NWRC ops then fails, as it would on silicon without the hook.
	DisableNWRTM bool
	// Trace, when non-nil, receives cycle-stamped events (deliveries,
	// element starts, miscompares) for debugging.
	Trace *trace.Recorder
	// Ctx, when non-nil, is polled between March elements and, inside
	// an element, every cancelPollInterval addresses: once it is
	// cancelled the run aborts promptly and returns Ctx.Err().
	Ctx context.Context
}

// ProposedRunner is the reusable form of RunProposed: the shared
// controller (schedule) plus a per-device datapath — the fleet's
// sram.Memory instances, a read scratch word per memory and the
// failure collector. It re-fits only when the fleet geometry (or
// delivery order) changes, so a fleet worker diagnosing thousands of
// same-plan devices allocates engine state once, not per device — the
// proposed-path analogue of simulator.Runner. A Runner is not safe for
// concurrent use; give each worker its own.
type ProposedRunner struct {
	schedule
	coll    *collector
	readBuf []bitvec.Vector
}

// perDevice is the ProposedRunner's datapath for one Run.
type perDevice struct {
	*ProposedRunner
	mems  []*sram.Memory
	trace *trace.Recorder
}

// NewProposedRunner returns an empty runner; the first Run sizes it.
func NewProposedRunner() *ProposedRunner { return &ProposedRunner{} }

// Run executes the proposed diagnosis scheme (Fig. 3) over a fleet of
// e-SRAMs in parallel, cycle-accurately (see schedule.run). The cycle
// accounting reproduces the paper's Eq. (2) exactly; the test to run
// is a parameter so the same engine measures March C-, March CW and
// their NWRTM merges.
//
// The PSC capture-and-drain round trip is simulated word-wise: a full
// drain of a freshly captured word reassembles, bit for bit, the word
// that was captured (pinned by the serial package's differential
// tests), so the comparator reads the captured word directly and the
// per-read cost drops from O(c²) bit shifts to O(c/64) word ops. The
// cycle charge (1 capture + cMax shift cycles per read) is analytic
// and unchanged.
func (r *ProposedRunner) Run(mems []*sram.Memory, test march.Test, opt ProposedOptions) (*Report, error) {
	if len(mems) == 0 {
		return nil, fmt.Errorf("bisd: empty fleet")
	}
	if fit(&r.schedule, mems, opt.DeliveryOrder) {
		r.coll = newCollector(r.geoms)
		r.readBuf = make([]bitvec.Vector, len(mems))
		for i, g := range r.geoms {
			r.readBuf[i] = bitvec.New(g.c)
		}
	} else {
		r.coll.reset(r.geoms)
	}
	cycles, retentionNs, err := run(&r.schedule, perDevice{r, mems, opt.Trace}, test, opt)
	if err != nil {
		return nil, err
	}
	return proposedReport(opt, cycles, retentionNs, r.coll.finish()), nil
}

func (d perDevice) hold(ms float64) {
	for _, m := range d.mems {
		m.Hold(ms)
	}
}

func (d perDevice) write(kind march.OpKind, phys []int, words []bitvec.Vector) {
	for i, m := range d.mems {
		switch kind {
		case march.WriteWeak:
			m.WriteWeak(phys[i], words[i])
		case march.WriteNWRC:
			m.WriteNWRC(phys[i], words[i])
		default:
			m.Write(phys[i], words[i])
		}
	}
}

// read compares the drained word directly: it is data-identical to
// the captured read word.
func (d perDevice) read(at FailureRecord, phys []int, cycles int64) {
	for i, m := range d.mems {
		m.ReadInto(phys[i], d.readBuf[i])
		for _, bit := range d.comp.Compare(i, phys[i], d.readBuf[i]) {
			if d.trace.Enabled() {
				d.trace.Emitf(cycles, trace.Miscompare,
					fmt.Sprintf("mem%d", i), "addr %d bit %d", phys[i], bit)
			}
			at.Memory, at.PhysicalAddr, at.Bit = i, phys[i], bit
			d.coll.record(at)
		}
	}
}

// RunProposed executes the proposed scheme once with fresh engine
// state; see ProposedRunner.Run. Callers diagnosing many same-geometry
// fleets should hold a ProposedRunner instead.
func RunProposed(mems []*sram.Memory, test march.Test, opt ProposedOptions) (*Report, error) {
	return NewProposedRunner().Run(mems, test, opt)
}
