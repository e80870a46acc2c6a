package bisd

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/sram"
)

// TestProposedRunnerElementLoopAllocFree pins the tentpole invariant:
// a warmed ProposedRunner's per-element/per-address loop allocates
// nothing. The per-run fixed cost (the report, the located-set
// assembly) is allowed, so the pin is differential — running a test
// with ~7x the elements (March CW over all backgrounds + NWRTM vs
// March C-) on ~4x the addresses must not add a single allocation.
func TestProposedRunnerElementLoopAllocFree(t *testing.T) {
	shortTest := march.MarchCMinus()
	longTest := march.WithNWRTM(march.MarchCW(100))
	small := []*sram.Memory{sram.New(128, 100)}
	big := []*sram.Memory{sram.New(512, 100)}

	measure := func(mems []*sram.Memory, test march.Test) float64 {
		runner := NewProposedRunner()
		if _, err := runner.Run(mems, test, ProposedOptions{}); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := runner.Run(mems, test, ProposedOptions{}); err != nil {
				t.Fatal(err)
			}
		})
	}

	short := measure(small, shortTest)
	long := measure(big, longTest)
	if long > short {
		t.Fatalf("element loop allocates: %v allocs/run on the long test vs %v on the short one", long, short)
	}
}

// TestProposedRunnerReuseSkipsRefit: re-running the same geometry must
// not rebuild the engine state (the fit fast path), and a geometry
// change must — for the per-device and the bank runner alike.
func TestProposedRunnerReuseSkipsRefit(t *testing.T) {
	runner, bank := NewProposedRunner(), NewBankRunner()
	for _, tc := range []struct {
		name string
		s    *schedule
		run  func(geoms []geometry) error
	}{
		{"per_device", &runner.schedule, func(geoms []geometry) error {
			mems := make([]*sram.Memory, len(geoms))
			for i, g := range geoms {
				mems[i] = sram.New(g.n, g.c)
			}
			_, err := runner.Run(mems, march.MarchCW(8), ProposedOptions{})
			return err
		}},
		{"bank", &bank.schedule, func(geoms []geometry) error {
			banks := make([]*sram.MemoryBank, len(geoms))
			for i, g := range geoms {
				banks[i] = sram.NewMemoryBank(g.n, g.c)
			}
			_, err := bank.Run(banks, sram.BankLanes, march.MarchCW(8), ProposedOptions{})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fleet := []geometry{{n: 32, c: 8}, {n: 16, c: 4}}
			if err := tc.run(fleet); err != nil {
				t.Fatal(err)
			}
			trig, comp := tc.s.trigger, tc.s.comp
			if err := tc.run(fleet); err != nil {
				t.Fatal(err)
			}
			if tc.s.trigger != trig || tc.s.comp != comp {
				t.Fatal("same-geometry re-run rebuilt engine state")
			}
			if err := tc.run([]geometry{{n: 64, c: 8}}); err != nil {
				t.Fatal(err)
			}
			if tc.s.trigger == trig {
				t.Fatal("geometry change did not re-fit the runner")
			}
		})
	}
}

// TestProposedRunnerReuseMatchesFresh: report equality between a
// reused runner and a fresh RunProposed on identically faulted fleets.
func TestProposedRunnerReuseMatchesFresh(t *testing.T) {
	runner := NewProposedRunner()
	test := march.WithNWRTM(march.MarchCW(8))
	build := func() []*sram.Memory {
		m := sram.New(32, 8)
		mustInject(t, m, fault.Fault{Class: fault.SA0, Victim: fault.Cell{Addr: 3, Bit: 1}})
		return []*sram.Memory{m}
	}
	// Warm the runner on a clean fleet so the faulted run below reuses
	// dirty comparator/collector state — the reset path under test.
	if _, err := runner.Run([]*sram.Memory{sram.New(32, 8)}, test, ProposedOptions{}); err != nil {
		t.Fatal(err)
	}
	reused, err := runner.Run(build(), test, ProposedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := RunProposed(build(), test, ProposedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reused.Cycles != fresh.Cycles {
		t.Fatalf("cycles %d vs %d", reused.Cycles, fresh.Cycles)
	}
	if len(reused.Memories[0].Located) != len(fresh.Memories[0].Located) {
		t.Fatalf("located %v vs %v", reused.Memories[0].Located, fresh.Memories[0].Located)
	}
	for i, c := range fresh.Memories[0].Located {
		if reused.Memories[0].Located[i] != c {
			t.Fatalf("located %v vs %v", reused.Memories[0].Located, fresh.Memories[0].Located)
		}
	}
	if len(reused.Memories[0].Failures) != len(fresh.Memories[0].Failures) {
		t.Fatalf("failures %d vs %d", len(reused.Memories[0].Failures), len(fresh.Memories[0].Failures))
	}
}
