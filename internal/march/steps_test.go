package march

import (
	"testing"

	"repro/internal/bitvec"
)

// stepTest builds a test of len(per) one-op elements, element k
// writing when k is even and reading when odd.
func stepTest(bc int, per []bool) Test {
	t := Test{Name: "steps", BackgroundCount: bc, PerBackground: per}
	for k := range per {
		op := W(false)
		if k%2 == 1 {
			op = R(false)
		}
		t.Elements = append(t.Elements, Element{Order: Order(k % 3), Ops: []Op{op}})
	}
	return t
}

// uncappedWidth is a width whose background count does not cap t.
func uncappedWidth(t Test) int { return 1 << max(t.BackgroundCount-1, 0) }

// checkSteps collects t.Steps(width) as (element index, background)
// pairs and checks the invariants every expansion keeps: execution
// indices are dense from 0, Element is the indexed element, and every
// background exists at the width and in the test.
func checkSteps(tb testing.TB, t Test, width int) [][2]int {
	tb.Helper()
	var got [][2]int
	for st := range t.Steps(width) {
		if st.Exec != len(got) {
			tb.Fatalf("%s at width %d: step %d has execution index %d", t.Name, width, len(got), st.Exec)
		}
		if st.Index < 0 || st.Index >= len(t.Elements) || st.Element.String() != t.Elements[st.Index].String() {
			tb.Fatalf("%s at width %d: step %d names element %d as %s", t.Name, width, st.Exec, st.Index, st.Element)
		}
		if st.Background < 0 || st.Background >= bitvec.NumBackgrounds(width) || st.Background >= max(t.BackgroundCount, 1) {
			tb.Fatalf("%s at width %d: step %d runs on background %d", t.Name, width, st.Exec, st.Background)
		}
		if (st.Background > 0) != t.Repeated(st.Index) {
			tb.Fatalf("%s at width %d: element %d (repeated %v) runs on background %d",
				t.Name, width, st.Index, t.Repeated(st.Index), st.Background)
		}
		got = append(got, [2]int{st.Index, st.Background})
	}
	return got
}

func TestStepsOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		test  Test
		width int
		want  [][2]int // (element index, background) per execution
	}{
		{"group in the middle", stepTest(3, []bool{false, true, true, false}), 8,
			[][2]int{{0, 0}, {1, 1}, {2, 1}, {1, 2}, {2, 2}, {3, 0}}},
		{"two groups", stepTest(3, []bool{true, false, true}), 8,
			[][2]int{{0, 1}, {0, 2}, {1, 0}, {2, 1}, {2, 2}}},
		{"one background, PerBackground set", stepTest(1, []bool{false, true, true}), 8,
			[][2]int{{0, 0}, {1, 0}, {2, 0}}},
		{"nil PerBackground", Test{Name: "nil", BackgroundCount: 3, Elements: stepTest(1, make([]bool, 2)).Elements}, 8,
			[][2]int{{0, 0}, {1, 0}}},
		{"width caps the backgrounds", stepTest(8, []bool{false, true, true}), 4,
			[][2]int{{0, 0}, {1, 1}, {2, 1}, {1, 2}, {2, 2}}},
		{"width 1 drops the group", stepTest(3, []bool{false, true, true, false}), 1,
			[][2]int{{0, 0}, {3, 0}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := checkSteps(t, tc.test, tc.width)
			if len(got) != len(tc.want) {
				t.Fatalf("steps = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("steps = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func TestStepsStopsWhenYieldDeclines(t *testing.T) {
	n := 0
	for st := range MarchCW(16).Steps(16) {
		if st.Exec == 7 {
			break
		}
		n++
	}
	if n != 7 {
		t.Fatalf("ran %d steps before the break, want 7", n)
	}
}

// TestStepsMatchComplexity checks Steps against the closed-form
// ComplexityFor, which counts elements and ops independently: uncapped,
// the expansion must execute exactly the elements and ops per word it
// charges.
func TestStepsMatchComplexity(t *testing.T) {
	tests := append(Algorithms(), DelayRetentionTest(100), RSMarch())
	for c := 1; c <= 130; c++ {
		tests = append(tests, MarchCW(c), WithNWRTM(MarchCW(c)), WithWWTM(MarchCW(c)))
	}
	for _, test := range tests {
		width := uncappedWidth(test)
		steps, ops := 0, 0
		for st := range test.Steps(width) {
			steps++
			ops += len(st.Element.Ops)
		}
		checkSteps(t, test, width)
		cx := test.ComplexityFor(1)
		if steps != cx.Elements || ops != cx.Ops() {
			t.Errorf("%s (%d backgrounds): %d steps, %d ops per word; ComplexityFor says %d, %d",
				test.Name, test.BackgroundCount, steps, ops, cx.Elements, cx.Ops())
		}
	}
}
