package memtest

import (
	"context"

	"repro/internal/bisd"
	"repro/internal/bitvec"
	"repro/internal/march"
	"repro/internal/simulator"
	"repro/internal/sram"
)

func init() {
	mustRegister(proposedEngine{})
	mustRegister(baselineEngine{})
	mustRegister(singleDirEngine{})
	mustRegister(rawSimEngine{})
}

// DefaultTest returns the March test the proposed scheme runs for a
// given widest IO width: March CW, NWRTM-merged when DRF diagnosis is
// requested.
func DefaultTest(cMax int, includeDRF bool) MarchTest {
	t := march.MarchCW(cMax)
	if includeDRF {
		t = march.WithNWRTM(t)
	}
	return t
}

// BackgroundsFor reports how many data backgrounds the default test
// uses for a width c — ceil(log2 c) + 1.
func BackgroundsFor(c int) int { return bitvec.NumBackgrounds(c) }

// proposedEngine is the paper's SPC/PSC scheme with March CW and,
// optionally, the NWRTM merge for data-retention faults (Fig. 3).
type proposedEngine struct{}

func (proposedEngine) Name() string     { return "proposed" }
func (proposedEngine) Describe() string { return "proposed" }

func (e proposedEngine) Run(ctx context.Context, f *Fleet, opt EngineOptions) (*Report, error) {
	return e.NewRunner().Run(ctx, f, opt)
}

// defaultTest caches the DefaultTest instantiation a runner last used,
// so same-plan devices and batches do not rebuild it.
type defaultTest struct {
	test  MarchTest
	cMax  int
	drf   bool
	valid bool
}

// get returns opt.Test, or the default test for the widest width cMax.
func (d *defaultTest) get(opt EngineOptions, cMax int) MarchTest {
	if opt.Test != nil {
		return *opt.Test
	}
	if !d.valid || d.cMax != cMax || d.drf != opt.IncludeDRF {
		d.test = DefaultTest(cMax, opt.IncludeDRF)
		d.cMax, d.drf, d.valid = cMax, opt.IncludeDRF, true
	}
	return d.test
}

// proposedOptions maps the engine options onto the bisd engine's.
func proposedOptions(ctx context.Context, opt EngineOptions) bisd.ProposedOptions {
	return bisd.ProposedOptions{
		ClockNs:       opt.ClockNs,
		DeliveryOrder: opt.DeliveryOrder,
		Trace:         opt.Trace,
		Ctx:           ctx,
	}
}

// NewRunner implements ReusableEngine: the returned runner wraps a
// bisd.ProposedRunner, so SPCs, comparator shadows, address sequences
// and scratch words are sized once per worker and reused across every
// same-plan device, and the default March test is instantiated once
// instead of per device.
func (proposedEngine) NewRunner() EngineRunner { return &proposedRunner{r: bisd.NewProposedRunner()} }

type proposedRunner struct {
	r    *bisd.ProposedRunner
	test defaultTest
}

func (pr *proposedRunner) Run(ctx context.Context, f *Fleet, opt EngineOptions) (*Report, error) {
	return pr.r.Run(f.mems, pr.test.get(opt, f.WidestWidth()), proposedOptions(ctx, opt))
}

// NewBatchRunner implements BatchEngine: the returned runner packs up
// to sram.BankLanes devices into bit-sliced MemoryBanks (one per plan
// memory, lane l = device l) and runs the March schedule once per
// batch through a bisd.BankRunner. Per-lane reports are byte-identical
// to the per-device path's (pinned by the fleet differential suite).
func (proposedEngine) NewBatchRunner() BatchRunner {
	return &proposedBatchRunner{r: bisd.NewBankRunner()}
}

type proposedBatchRunner struct {
	r     *bisd.BankRunner
	banks []*sram.MemoryBank
	cMax  int
	test  defaultTest
}

func (pb *proposedBatchRunner) Lanes() int { return sram.BankLanes }

func (pb *proposedBatchRunner) Load(lane int, f *Fleet) (bankable bool, err error) {
	if lane == 0 {
		pb.fit(f)
	}
	bankable = true
	for i, m := range f.mems {
		ok, err := pb.banks[i].LoadLane(lane, m.Faults())
		if err != nil {
			return false, err
		}
		if !ok {
			// An unbankable fault class (SOF/ADOF/CDF): the lane still
			// runs in the bank, but its report is wrong and the caller
			// re-diagnoses this device per-device. Lanes never interact,
			// so the other lanes stay exact.
			bankable = false
		}
	}
	return bankable, nil
}

// fit sizes the banks to the fleet's geometry, reusing them (a cheap
// O(special cells) Reset each) when it is unchanged — the steady state
// for same-plan fleet batches.
func (pb *proposedBatchRunner) fit(f *Fleet) {
	match := len(pb.banks) == len(f.mems)
	if match {
		for i, m := range f.mems {
			if pb.banks[i].N() != m.N() || pb.banks[i].C() != m.C() {
				match = false
				break
			}
		}
	}
	if match {
		for _, b := range pb.banks {
			b.Reset()
		}
		return
	}
	pb.banks = make([]*sram.MemoryBank, len(f.mems))
	for i, m := range f.mems {
		pb.banks[i] = sram.NewMemoryBank(m.N(), m.C())
	}
	pb.cMax = f.WidestWidth()
}

// RunBatch ignores opt.Trace, as bisd.BankRunner does.
func (pb *proposedBatchRunner) RunBatch(ctx context.Context, lanes int, opt EngineOptions) ([]*Report, error) {
	return pb.r.Run(pb.banks, lanes, pb.test.get(opt, pb.cMax), proposedOptions(ctx, opt))
}

// baselineEngine is the bi-directional serial scheme of [7,8] with its
// iterated M1 element and, optionally, delay-based DRF testing
// (Fig. 1).
type baselineEngine struct{}

func (baselineEngine) Name() string     { return "baseline" }
func (baselineEngine) Describe() string { return "baseline-[7,8]" }

func (baselineEngine) Run(ctx context.Context, f *Fleet, opt EngineOptions) (*Report, error) {
	analytic := opt.AnalyticBaseline
	for _, m := range f.mems {
		if m.N()*m.C() > AnalyticThresholdCells {
			analytic = true
		}
	}
	return bisd.RunBaseline(f.mems, bisd.BaselineOptions{
		ClockNs:  opt.ClockNs,
		WithDRF:  opt.IncludeDRF,
		Analytic: analytic,
		Ctx:      ctx,
	})
}

// singleDirEngine is the single-directional serial interface of [9,10],
// kept for the fault-masking comparison.
type singleDirEngine struct{}

func (singleDirEngine) Name() string     { return "singledir" }
func (singleDirEngine) Describe() string { return "single-dir-[9,10]" }

func (singleDirEngine) Run(ctx context.Context, f *Fleet, opt EngineOptions) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return bisd.RunSingleDirectional(f.mems, opt.ClockNs)
}

// rawSimEngine executes the March test word-wide on each memory through
// the RAMSES-style fault simulator, with no interface or controller
// modeling — the ideal-coverage reference the proposed scheme is
// equivalent to (its SPC/PSC plumbing is transparent). Each memory runs
// its own un-wrapped address space; cycle accounting charges one cycle
// per operation on the largest memory, over the element executions a
// controller of the widest width runs, as a lower bound.
type rawSimEngine struct{}

func (rawSimEngine) Name() string     { return "rawsim" }
func (rawSimEngine) Describe() string { return "raw simulator (ideal word-wide)" }

func (rawSimEngine) Run(ctx context.Context, f *Fleet, opt EngineOptions) (*Report, error) {
	rep := &Report{Scheme: "raw simulator (ideal word-wide)", ClockNs: opt.ClockNs}
	nMax := 0
	for i := range f.mems {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m := f.mems[i]
		test := opt.Test
		if test == nil {
			t := DefaultTest(m.C(), opt.IncludeDRF)
			test = &t
		}
		res := simulator.Run(m, *test)
		mr := MemoryReport{Index: i, Words: m.N(), Width: m.C(), Located: res.Located}
		for _, fl := range res.Failures {
			// The simulator records word-level miscompares; expand each
			// into one record per failing bit so scan-out and off-line
			// classification see true bit positions.
			fl.Got.ForEachDiff(fl.Expected, func(bit int) {
				mr.Failures = append(mr.Failures, FailureRecord{
					Memory: i, LogicalAddr: fl.Addr, PhysicalAddr: fl.Addr, Bit: bit,
					Element: fl.Element, Background: fl.Background, Op: fl.Op,
				})
			})
		}
		rep.Memories = append(rep.Memories, mr)
		if res.RetentionMs*1e6 > rep.RetentionNs {
			rep.RetentionNs = res.RetentionMs * 1e6
		}
		if m.N() > nMax {
			nMax = m.N()
		}
	}
	if len(f.mems) > 0 {
		cMax := f.WidestWidth()
		test := opt.Test
		if test == nil {
			t := DefaultTest(cMax, opt.IncludeDRF)
			test = &t
		}
		opsPerWord := 0
		for st := range test.Steps(cMax) {
			opsPerWord += len(st.Element.Ops)
		}
		rep.Cycles = int64(opsPerWord * nMax)
	}
	return rep, nil
}
