package march

import "repro/internal/bitvec"

// Built-in March algorithms.
//
// The single-background classics are given in their textbook form. The
// multi-background March CW follows the paper's Eq. (2) accounting: a
// March C- body on the solid background plus, per additional
// background, a three-element extension contributing 3n writes and 2n
// reads with three background deliveries (see DESIGN.md for the
// reconstruction note).

// MATSPlus returns MATS+: {⇕(w0); ⇑(r0,w1); ⇓(r1,w0)} — the minimal
// test detecting all address-decoder and stuck-at faults.
func MATSPlus() Test {
	return Test{
		Name: "MATS+",
		Elements: []Element{
			{Order: Any, Ops: []Op{W(false)}},
			{Order: Up, Ops: []Op{R(false), W(true)}},
			{Order: Down, Ops: []Op{R(true), W(false)}},
		},
		BackgroundCount: 1,
	}
}

// MarchCMinus returns March C- [12]:
// {⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)}, 10n ops.
func MarchCMinus() Test {
	return Test{
		Name: "March C-",
		Elements: []Element{
			{Order: Any, Ops: []Op{W(false)}},
			{Order: Up, Ops: []Op{R(false), W(true)}},
			{Order: Up, Ops: []Op{R(true), W(false)}},
			{Order: Down, Ops: []Op{R(false), W(true)}},
			{Order: Down, Ops: []Op{R(true), W(false)}},
			{Order: Any, Ops: []Op{R(false)}},
		},
		BackgroundCount: 1,
	}
}

// MarchCW returns March CW for IO width c: the March C- body on the
// solid background plus a per-background extension over the remaining
// ceil(log2 c) backgrounds of bitvec.Backgrounds, targeting intra-word
// coupling and column-decoder faults. Total ops match Eq. (2):
// 10n + (5n)·ceil(log2 c) per word-op accounting (3n writes + 2n reads
// per extra background).
func MarchCW(c int) Test {
	base := MarchCMinus()
	nb := bitvec.NumBackgrounds(c)
	t := Test{
		Name:            "March CW",
		BackgroundCount: nb,
	}
	// March C- body runs once (solid background).
	per := make([]bool, 0, len(base.Elements)+3)
	t.Elements = append(t.Elements, base.Elements...)
	for range base.Elements {
		per = append(per, false)
	}
	// Extension runs once per non-solid background: ⇕(wD); ⇕(rD,w~D);
	// ⇕(r~D,wD). 3n writes + 2n reads + 3 deliveries per background.
	ext := []Element{
		{Order: Any, Ops: []Op{W(false)}},
		{Order: Any, Ops: []Op{R(false), W(true)}},
		{Order: Any, Ops: []Op{R(true), W(false)}},
	}
	t.Elements = append(t.Elements, ext...)
	per = append(per, true, true, true)
	t.PerBackground = per
	return t
}

// WithNWRTM merges DRF detection into March C- (or the March C- body of
// March CW) following Sec. 3.4: two extra No Write Recovery Cycles are
// added, one per polarity, each placed so that an existing read
// observes the (possibly failed) flip. The merge adds exactly 2n write
// operations and two element deliveries — the (2n+2c)·t extra the
// paper's Eq. (4) charges the proposed scheme — and no extra reads.
//
// The merged March C- body is
//
//	{⇕(w0); ⇕(n1); ⇑(r1,w0); ⇑(r0,w1); ⇕(n0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)}
//
// A DRF<1> cell fails the n1 flip and is caught by the first r1; a
// DRF<0> cell fails the n0 flip and is caught by the down pass's first
// r0. The down pass and final read are March C-'s; the up pass runs
// with inverted data sense, which preserves the {up,down} × {r0w1,r1w0}
// coverage structure of March C-, and the body ends in the all-zero
// state so a following March CW extension sees the same entry state as
// in plain March CW.
func WithNWRTM(t Test) Test {
	body := []Element{
		{Order: Any, Ops: []Op{W(false)}},
		{Order: Any, Ops: []Op{N(true)}},
		{Order: Up, Ops: []Op{R(true), W(false)}},
		{Order: Up, Ops: []Op{R(false), W(true)}},
		{Order: Any, Ops: []Op{N(false)}},
		{Order: Down, Ops: []Op{R(false), W(true)}},
		{Order: Down, Ops: []Op{R(true), W(false)}},
		{Order: Any, Ops: []Op{R(false)}},
	}
	out := Test{
		Name:            t.Name + " + NWRTM",
		BackgroundCount: t.BackgroundCount,
	}
	if t.BackgroundCount <= 1 {
		out.Elements = body
		return out
	}
	// Multi-background (March CW): the solid-background body gets the
	// NWRC merge; the per-background extension is appended unchanged.
	out.Elements = append(out.Elements, body...)
	per := make([]bool, 0, len(body))
	for range body {
		per = append(per, false)
	}
	for i, e := range t.Elements {
		if t.Repeated(i) {
			out.Elements = append(out.Elements, e)
			per = append(per, true)
		}
	}
	out.PerBackground = per
	return out
}

// WithWWTM appends the Weak Write Test Mode DRF phase of [14,15] to a
// test — the DFT alternative the paper's Sec. 3.4 argues against on
// test-time grounds. Because a weak write is not a functional write (a
// good cell keeps its value), WWTM cannot be merged into the March data
// flow like NWRTM; it needs a dedicated tail per polarity with its own
// verify reads:
//
//	⇕(w1); ⇕(k0); ⇕(r1,w0); ⇕(k1); ⇕(r0)
//
// A DRF<1> cell holding a (dynamic) 1 is flipped by the weak write-0
// and caught at r1; a DRF<0> cell symmetrically at r0. The tail adds
// 6n operations and 5 pattern deliveries — versus NWRTM's 2n and 2 —
// quantifying the paper's "NWRTM is the best in terms of test time for
// DRFs among all existing DFT techniques".
func WithWWTM(t Test) Test {
	tail := []Element{
		{Order: Any, Ops: []Op{W(true)}},
		{Order: Any, Ops: []Op{K(false)}},
		{Order: Any, Ops: []Op{R(true), W(false)}},
		{Order: Any, Ops: []Op{K(true)}},
		{Order: Any, Ops: []Op{R(false)}},
	}
	out := Test{
		Name:            t.Name + " + WWTM",
		BackgroundCount: t.BackgroundCount,
		Elements:        append(append([]Element{}, t.Elements...), tail...),
	}
	if t.PerBackground != nil {
		per := append([]bool{}, t.PerBackground...)
		for range tail {
			per = append(per, false)
		}
		out.PerBackground = per
	}
	return out
}

// DelayRetentionTest returns the conventional delay-based DRF test the
// baseline scheme must fall back on: write solid 0, pause, read (the
// (w0/r0)R+L pair), then write solid 1, pause, read. Each pause is
// pauseMs (100 ms in [3] and in the paper's Eq. (4) accounting, which
// charges 2 x 100 ms).
func DelayRetentionTest(pauseMs float64) Test {
	return Test{
		Name: "Delay DRF",
		Elements: []Element{
			{Order: Any, Ops: []Op{W(false)}},
			{Order: Any, Ops: []Op{R(false), W(true)}, DelayMs: pauseMs},
			{Order: Any, Ops: []Op{R(true)}, DelayMs: pauseMs},
		},
		BackgroundCount: 1,
	}
}

// RSMarch returns the right-shift serial March underlying the baseline
// scheme [7,8]. The test below is the behavioural equivalent used for
// coverage simulation; the baseline engine's *timing* follows the
// published complexity (17k+9)nct rather than this element list, since
// each serial element costs n·c shift cycles (see internal/timing and
// internal/bisd).
func RSMarch() Test {
	t := MarchCMinus()
	t.Name = "RSMarch"
	return t
}

// DiagRSMarchUnits reports the complexity structure of DiagRSMarch
// [7,8] in serial element units of n·c cycles each: the M1 block costs
// 17 units per iteration and the fixed extra elements (left-shift
// passes and checkerboard patterns) cost 9 units.
func DiagRSMarchUnits() (m1Units, fixedUnits int) { return 17, 9 }

// M1CoverageFraction is the fraction of the total fault population the
// baseline's M1 element covers; the paper's case study uses 75 %
// (Sec. 4.2), the remaining 25 % being covered by the fixed extra
// elements.
const M1CoverageFraction = 0.75

// M1FaultsPerIteration is the number of faults one M1 iteration of the
// baseline can identify: at most one per shift direction of the
// bi-directional serial interface.
const M1FaultsPerIteration = 2
