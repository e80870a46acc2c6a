package march

import (
	"testing"

	"repro/internal/bitvec"
)

// FuzzParse: the March notation parser must never panic and must
// round-trip everything it accepts.
func FuzzParse(f *testing.F) {
	f.Add("⇕(w0); ⇑(r0,w1); ⇓(r1,w0)")
	f.Add("a(w0); u(rD,w~D); d(n1,k0)")
	f.Add("{ u(r0) }")
	f.Add("")
	f.Add("x(!!)")
	f.Fuzz(func(t *testing.T, src string) {
		parsed, err := Parse(src)
		if err != nil {
			return
		}
		if err := parsed.Validate(); err != nil {
			t.Fatalf("Parse accepted %q but Validate rejects: %v", src, err)
		}
		// Render and reparse: the element structure must be stable.
		again, err := Parse(parsed.String()[len(parsed.Name)+2:])
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", parsed.String(), err)
		}
		if len(again.Elements) != len(parsed.Elements) {
			t.Fatalf("round trip changed element count: %d -> %d",
				len(parsed.Elements), len(again.Elements))
		}
		for i := range again.Elements {
			if again.Elements[i].String() != parsed.Elements[i].String() {
				t.Fatalf("element %d changed: %s -> %s",
					i, parsed.Elements[i], again.Elements[i])
			}
		}
	})
}

// FuzzSteps: for any test shape and width the expansion keeps its
// invariants (dense execution indices, backgrounds in range for the
// width, repeated elements only off the solid background), runs
// exactly min(BackgroundCount, NumBackgrounds(width))-1 passes of each
// repeated element, and uncapped executes ComplexityFor's element count.
func FuzzSteps(f *testing.F) {
	f.Add(uint8(4), uint8(3), uint64(0b0110), true, uint16(8))
	f.Add(uint8(9), uint8(8), uint64(0b111000000), true, uint16(16))
	f.Add(uint8(3), uint8(1), uint64(0b111), true, uint16(1))
	f.Add(uint8(5), uint8(6), uint64(0), false, uint16(0))
	f.Fuzz(func(t *testing.T, elems, bc uint8, perMask uint64, hasPer bool, width uint16) {
		per := make([]bool, 1+int(elems)%32)
		for k := range per {
			per[k] = perMask>>k&1 == 1
		}
		test := stepTest(1+int(bc)%24, per)
		if !hasPer {
			test.PerBackground = nil
		}
		nBgs := min(test.BackgroundCount, bitvec.NumBackgrounds(int(width)))
		want := 0
		for k := range test.Elements {
			if test.Repeated(k) {
				want += nBgs - 1
			} else {
				want++
			}
		}
		if got := len(checkSteps(t, test, int(width))); got != want {
			t.Fatalf("width %d: %d steps, want %d", width, got, want)
		}
		if got, cx := len(checkSteps(t, test, uncappedWidth(test))), test.ComplexityFor(1); got != cx.Elements {
			t.Fatalf("uncapped: %d steps, ComplexityFor counts %d", got, cx.Elements)
		}
	})
}
