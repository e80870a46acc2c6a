package bisd

import (
	"context"

	"repro/internal/bitvec"
	"repro/internal/march"
	"repro/internal/serial"
	"repro/internal/trace"
)

// schedule is the shared BISD controller of Fig. 3 as the proposed
// engines run it: the address trigger, the background generator with
// the per-memory SPCs, the local address generators and the comparator
// array's expected shadow. One walk drives a March test through every
// memory; the per-device ProposedRunner and the bit-sliced BankRunner
// differ only in the datapath they plug in. The controller never sees
// a fault, so its cycle and retention accounting is the same for both.
type schedule struct {
	// Cached sizing; state below is rebuilt when it stops matching.
	geoms []geometry
	cMax  int
	order serial.Order

	trigger  *AddressTrigger
	bgGen    *BackgroundGenerator
	comp     *ComparatorArray
	spcs     []*serial.SPC
	addrGens []*LocalAddressGenerator
	// Per-memory word buffers, refreshed once per element: the SPC
	// output and the controller's intended delivery, each with its
	// complement — the per-op loop runs allocation-free on these.
	spcWord, spcWordInv   []bitvec.Vector
	intended, intendedInv []bitvec.Vector
	// phys[i] is memory i's physical address for the current logical
	// address.
	phys []int
}

// cancelPollInterval is the address-loop cancellation granularity:
// within a March element the optional Ctx is polled every this many
// addresses, so even a single very large memory aborts promptly
// instead of finishing a multi-second element first. A power of two
// keeps the poll check a mask test.
const cancelPollInterval = 1 << 14

// datapath is the memory side of the schedule: one sram.Memory per
// device, or one bit-sliced sram.MemoryBank per batch of devices. Each
// runner passes a small struct value for the duration of one run.
type datapath interface {
	// hold idles every memory for a retention pause.
	hold(ms float64)
	// write applies words[i], the SPC output, to memory i at phys[i].
	write(kind march.OpKind, phys []int, words []bitvec.Vector)
	// read captures word phys[i] of every memory i, compares it against
	// the comparator's expected word and records every failing bit as
	// at with Memory, PhysicalAddr and Bit set. cycles is the count
	// after the read's capture and shift-out.
	read(at FailureRecord, phys []int, cycles int64)
}

// fit sizes the controller for the memories and reports whether it was
// rebuilt. With the geometry and delivery order unchanged it only
// clears the expected shadow and the SPCs, and the caller may keep its
// datapath state too.
func fit[M sized](s *schedule, mems []M, order serial.Order) (rebuilt bool) {
	same := s.trigger != nil && s.order == order && len(s.geoms) == len(mems)
	for i := 0; same && i < len(mems); i++ {
		same = s.geoms[i] == (geometry{n: mems[i].N(), c: mems[i].C()})
	}
	if same {
		s.comp.Reset()
		for _, spc := range s.spcs {
			spc.Reset()
		}
		return false
	}
	nMax, cMax, geoms := fleetGeometry(mems)
	s.geoms, s.cMax, s.order = geoms, cMax, order
	s.trigger = NewAddressTrigger(nMax)
	s.bgGen = NewBackgroundGenerator(cMax, order)
	s.comp = newComparatorArray(geoms)
	s.spcs = make([]*serial.SPC, len(geoms))
	s.addrGens = make([]*LocalAddressGenerator, len(geoms))
	s.spcWord = make([]bitvec.Vector, len(geoms))
	s.spcWordInv = make([]bitvec.Vector, len(geoms))
	s.intended = make([]bitvec.Vector, len(geoms))
	s.intendedInv = make([]bitvec.Vector, len(geoms))
	s.phys = make([]int, len(geoms))
	for i, g := range geoms {
		s.spcs[i] = serial.NewSPC(g.c)
		s.addrGens[i] = NewLocalAddressGenerator(g.n)
		s.spcWord[i] = bitvec.New(g.c)
		s.spcWordInv[i] = bitvec.New(g.c)
		s.intended[i] = bitvec.New(g.c)
		s.intendedInv[i] = bitvec.New(g.c)
	}
	return true
}

// run walks test through the fitted fleet in the order
// march.Test.Steps expands it at the widest width, cycle-accurately:
//
//   - before each March element that writes, the background pattern is
//     serially delivered to every SPC (cMax cycles, widest memory);
//   - each write op applies the SPC word in parallel (1 cycle);
//   - each read op captures into the PSC (1 cycle) and shifts the
//     response back bit by bit while the memory idles (cMax cycles),
//     where the comparator array checks it against the controller's
//     wrap-tolerant expected state.
//
// It returns the cycles and retention time the run charges. The
// optional opt.Ctx is polled at every element entry and every
// cancelPollInterval addresses inside an element.
//
// run is generic so that each datapath struct gets its own compiled
// walk with direct calls in the per-op loop, and so that a run's
// memories are held by the datapath value, never by the long-lived
// runner.
func run[D datapath](s *schedule, dp D, test march.Test, opt ProposedOptions) (cycles int64, retentionNs float64, err error) {
	if err := test.Validate(); err != nil {
		return 0, 0, err
	}
	cg := &ControlGenerator{NWRTMWired: !opt.DisableNWRTM}
	if err := cg.Check(test); err != nil {
		return 0, 0, err
	}
	for st := range test.Steps(s.cMax) {
		e := st.Element
		if err := ctxErr(opt.Ctx); err != nil {
			return 0, 0, err
		}
		if e.DelayMs > 0 {
			dp.hold(e.DelayMs)
			retentionNs += e.DelayMs * 1e6
		}
		// The Enabled guards keep the disabled-trace path free of the
		// variadic boxing Emitf's arguments would otherwise allocate
		// once per element.
		if opt.Trace.Enabled() {
			opt.Trace.Emitf(cycles, trace.ElementStart, "ctrl", "elem %d bg %d: %s", st.Exec, st.Background, e)
		}
		pattern := s.bgGen.Pattern(st.Background)
		if e.Writes() > 0 {
			if opt.Trace.Enabled() {
				opt.Trace.Emitf(cycles, trace.Delivery, "bggen", "pattern %s", pattern)
			}
			cycles += int64(s.bgGen.Deliver(pattern, s.spcs))
		}
		// The SPC holds whatever was (last) delivered — the memory
		// receives that — while the comparator expects what the
		// controller *intended* to deliver, DP[c_i-1:0]. With MSB-first
		// delivery the two coincide; with the hazardous LSB-first order
		// of Fig. 4 they diverge and diagnosis breaks down.
		for i := range s.geoms {
			s.spcs[i].WordInto(s.spcWord[i])
			s.spcWordInv[i].InvertFrom(s.spcWord[i])
			s.intended[i].CopyTruncated(pattern)
			s.intendedInv[i].InvertFrom(s.intended[i])
		}
		at := FailureRecord{Element: st.Exec, Background: st.Background}
		for ai, logical := range s.trigger.Sequence(e.Order) {
			if ai&(cancelPollInterval-1) == cancelPollInterval-1 {
				if err := ctxErr(opt.Ctx); err != nil {
					return 0, 0, err
				}
			}
			for i, g := range s.addrGens {
				s.phys[i] = g.Map(logical)
			}
			at.LogicalAddr = logical
			for opIdx, op := range e.Ops {
				at.Op = opIdx
				if op.Kind == march.Read {
					// 1 capture cycle + cMax shift-out cycles while the
					// memory idles.
					cycles += 1 + int64(s.cMax)
					dp.read(at, s.phys, cycles)
					continue
				}
				cycles++
				words, wants := s.spcWord, s.intended
				if op.Inverted {
					words, wants = s.spcWordInv, s.intendedInv
				}
				dp.write(op.Kind, s.phys, words)
				// A weak write cannot change a fault-free memory, so the
				// expected shadow is untouched; a fault-free memory
				// accepts the other write kinds alike.
				if op.Kind != march.WriteWeak {
					for i, p := range s.phys {
						s.comp.NoteWrite(i, p, wants[i])
					}
				}
			}
		}
	}
	return cycles, retentionNs, nil
}

// proposedReport assembles a proposed-scheme report; a zero
// opt.ClockNs defaults to the paper's 10 ns.
func proposedReport(opt ProposedOptions, cycles int64, retentionNs float64, mems []MemoryResult) *Report {
	if opt.ClockNs == 0 {
		opt.ClockNs = 10
	}
	return &Report{
		Scheme: "proposed (SPC/PSC)", ClockNs: opt.ClockNs,
		Cycles: cycles, RetentionNs: retentionNs, Memories: mems,
	}
}

// ctxErr is a non-blocking cancellation poll; a nil context never
// cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
