package memtest

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/march"
)

// This file is the cross-path differential wall for the bit-sliced
// fleet engine: every DeviceResult the banked batch path streams must
// be byte-identical (as JSON) to the per-device path's, across fault
// mixes, device counts that straddle the 64-lane batch boundary,
// worker counts, both delivery modes, and forced lane divergence. The
// per-device reference arm is obtained by flipping the session's
// noBatch switch, which hides the engine's BatchEngine side.

// diffPlan draws the paper's defect classes (SA0/SA1, TFUp/TFDown,
// CFid, CFin) at a rate high enough that every run sees a mix, plus
// explicit DRFs, over heterogeneous widths so background truncation
// and word wrap are both in play.
func diffPlan() Plan {
	return Plan{
		Name:    "diff-fleet",
		ClockNs: 10,
		Memories: []MemorySpec{
			{Name: "wide", Words: 24, Width: 12, DefectRate: 0.05, Seed: 21},
			{Name: "mid", Words: 32, Width: 8, DefectRate: 0.08, DRFCount: 2, Seed: 22},
			{Name: "narrow", Words: 16, Width: 4, DefectRate: 0.1, DRFCount: 1, Seed: 23},
		},
	}
}

// cleanDiffPlan has one faulty memory amid clean ones, so most lanes
// take the all-clean fast path.
func cleanDiffPlan() Plan {
	return Plan{
		Name:    "diff-clean",
		ClockNs: 10,
		Memories: []MemorySpec{
			{Name: "clean0", Words: 32, Width: 8, Seed: 31},
			{Name: "dirty", Words: 16, Width: 6, DefectRate: 0.06, Seed: 32},
			{Name: "clean1", Words: 24, Width: 10, Seed: 33},
		},
	}
}

// fleetLines streams a fleet and returns the per-device JSON lines
// keyed by device index, tolerating unordered delivery.
func fleetLines(t *testing.T, s *Session, devices int) map[int]string {
	t.Helper()
	got := make(map[int]string, devices)
	for dr, err := range s.RunFleet(context.Background(), devices) {
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := got[dr.Device]; dup {
			t.Fatalf("device %d yielded twice", dr.Device)
		}
		data, err := json.Marshal(dr)
		if err != nil {
			t.Fatal(err)
		}
		got[dr.Device] = string(data)
	}
	if len(got) != devices {
		t.Fatalf("stream yielded %d devices, want %d", len(got), devices)
	}
	return got
}

// diffFleets runs the same plan+options once banked and once per-device
// and requires byte-identical DeviceResult JSON for every device.
func diffFleets(t *testing.T, plan Plan, devices int, opts ...Option) {
	t.Helper()
	banked, err := New(plan, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := banked.engine.(BatchEngine); !ok {
		t.Fatal("proposed engine no longer batchable; differential is vacuous")
	}
	ref, err := New(plan, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ref.noBatch = true
	want := fleetLines(t, ref, devices)
	got := fleetLines(t, banked, devices)
	for d := 0; d < devices; d++ {
		if got[d] != want[d] {
			t.Fatalf("banked device %d differs from per-device path:\nbanked:  %s\nperdev:  %s",
				d, got[d], want[d])
		}
	}
}

func TestBankedFleetDifferential(t *testing.T) {
	cases := []struct {
		name    string
		plan    Plan
		devices int
		opts    []Option
	}{
		{"mix_drf", diffPlan(), 65, []Option{WithSeed(7), WithDRF(), WithWorkers(4)}},
		{"mix_no_drf", diffPlan(), 65, []Option{WithSeed(8), WithWorkers(4)}},
		{"mix_repair", diffPlan(), 65, []Option{WithSeed(9), WithDRF(), WithWorkers(4),
			WithRepair(Budget{SpareWords: 2, SpareCells: 6})}},
		{"mix_lsb_hazard", diffPlan(), 65, []Option{WithSeed(10), WithDRF(), WithWorkers(4),
			WithDeliveryOrder(LSBFirst)}},
		{"mostly_clean", cleanDiffPlan(), 65, []Option{WithSeed(11), WithWorkers(4)}},
		{"unordered", diffPlan(), 65, []Option{WithSeed(12), WithDRF(), WithWorkers(4),
			WithFleetDelivery(Unordered)}},
		// Non-default March programs drive the bank through weak
		// writes, retention holds and tests without per-background
		// repetition.
		{"wwtm", diffPlan(), 65, []Option{WithSeed(14), WithDRF(), WithWorkers(4),
			WithMarchTest(march.WithWWTM(march.MarchCW(12)))}},
		{"delay_retention", diffPlan(), 65, []Option{WithSeed(15), WithDRF(), WithWorkers(4),
			WithMarchTest(march.DelayRetentionTest(100))}},
		{"march_c_minus", diffPlan(), 65, []Option{WithSeed(16), WithWorkers(4),
			WithMarchTest(march.MarchCMinus())}},
		{"mats_plus", diffPlan(), 65, []Option{WithSeed(17), WithWorkers(4),
			WithMarchTest(march.MATSPlus())}},
		{"wwtm_lsb_hazard", diffPlan(), 65, []Option{WithSeed(18), WithDRF(), WithWorkers(4),
			WithMarchTest(march.WithWWTM(march.MarchCW(12))), WithDeliveryOrder(LSBFirst)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diffFleets(t, tc.plan, tc.devices, tc.opts...)
		})
	}
}

// TestBankedFleetDifferentialDeviceCounts walks the batch boundary:
// a single lane, one short of a full bank, exactly one bank, one into
// the second bank, and several banks' worth split across workers.
func TestBankedFleetDifferentialDeviceCounts(t *testing.T) {
	for _, devices := range []int{1, 63, 64, 65, 200} {
		t.Run(fmt.Sprintf("%d_devices", devices), func(t *testing.T) {
			diffFleets(t, diffPlan(), devices, WithSeed(3), WithDRF(), WithWorkers(4))
		})
	}
}

// TestBankedFleetDifferentialWorkerCounts pins that batch claiming —
// workers grab 64-device windows from a shared counter — stays
// byte-identical to the per-device path at every pool size, in both
// delivery modes.
func TestBankedFleetDifferentialWorkerCounts(t *testing.T) {
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, delivery := range []FleetDelivery{Ordered, Unordered} {
			opts := []Option{WithSeed(5), WithDRF(), WithWorkers(workers),
				WithFleetDelivery(delivery)}
			diffFleets(t, diffPlan(), 130, opts...)
		}
	}
}

// TestBankedFleetForcedDivergence pins the lane-divergence rule: when
// the batch path decides a lane cannot be trusted to the bank (as for
// SOF/ADOF/CDF faults), it re-runs that device through the pooled
// per-device path — and the result must still be byte-identical. The
// divergeLane hook forces the decision on arbitrary lanes, including
// patterns where most of a batch diverges.
func TestBankedFleetForcedDivergence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		diverge func(device int) bool
	}{
		{"every_7th", func(d int) bool { return d%7 == 0 }},
		{"first_lane", func(d int) bool { return d%64 == 0 }},
		{"last_lane", func(d int) bool { return d%64 == 63 }},
		{"most_lanes", func(d int) bool { return d%4 != 0 }},
		{"all_lanes", func(d int) bool { return true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			banked, err := New(diffPlan(), WithSeed(13), WithDRF(), WithWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			banked.divergeLane = tc.diverge
			ref, err := New(diffPlan(), WithSeed(13), WithDRF(), WithWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			ref.noBatch = true
			want := fleetLines(t, ref, 70)
			got := fleetLines(t, banked, 70)
			for d := 0; d < 70; d++ {
				if got[d] != want[d] {
					t.Fatalf("diverged device %d differs:\nbanked:  %s\nperdev:  %s",
						d, got[d], want[d])
				}
			}
		})
	}
}

// TestRunFleetRangeStitchesAcrossBatchBoundary extends the PR 6 stitch
// pin to banked-fleet scale: [0, k) + [k, 130) must be byte-identical
// to a full [0, 130) run at splits on, next to, and far from the
// 64-lane batch boundary. A resumed suffix starts its own batches at
// k, so this holds only because lanes never interact and per-device
// seeds derive from absolute indices.
func TestRunFleetRangeStitchesAcrossBatchBoundary(t *testing.T) {
	const devices = 130
	s, err := New(diffPlan(), WithSeed(7), WithWorkers(2), WithDRF())
	if err != nil {
		t.Fatal(err)
	}
	want := collectFleet(t, s, devices)
	for _, k := range []int{1, 63, 64, 65, 129} {
		got := append(collectRange(t, s, 0, k), collectRange(t, s, k, devices)...)
		if len(got) != devices {
			t.Fatalf("k=%d: stitched %d devices", k, len(got))
		}
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("k=%d: stitched device %d differs:\n%s\nvs\n%s", k, d, got[d], want[d])
			}
		}
	}
}

// TestBankedDivergenceReusesPooledBuilders pins how lane divergence
// pays for itself: when every lane is forced onto the per-device slow
// path, the re-runs go through the worker's pooled fleet builder —
// recycled memories, recycled fault tables — so the banked session
// may not allocate meaningfully more than the plain per-device path
// does for the same work. A divergence path that built fresh fleets
// would multiply allocations several-fold and trip this.
func TestBankedDivergenceReusesPooledBuilders(t *testing.T) {
	const devices = 65
	measure := func(configure func(*Session)) float64 {
		s, err := New(diffPlan(), WithSeed(3), WithWorkers(1), WithDRF())
		if err != nil {
			t.Fatal(err)
		}
		configure(s)
		drain := func() {
			for _, err := range s.RunFleet(context.Background(), devices) {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		drain() // warm pooled builders and runner scratch
		return testing.AllocsPerRun(3, drain)
	}
	diverged := measure(func(s *Session) { s.divergeLane = func(int) bool { return true } })
	perDevice := measure(func(s *Session) { s.noBatch = true })
	// The diverged run legitimately pays twice per device for builds
	// (once to load the bank, once for the re-run) plus the discarded
	// batch reports. What it must NOT pay is a fresh fleet build per
	// re-run: that alone would cost another `devices * fresh` allocs,
	// so the overhead staying under that line proves the re-runs ride
	// the pooled builder.
	plan := diffPlan()
	fresh := testing.AllocsPerRun(20, func() {
		if _, err := plan.newFleetBuilder().build(3, true); err != nil {
			t.Fatal(err)
		}
	})
	if overhead := diverged - perDevice; overhead > float64(devices)*fresh {
		t.Fatalf("fully diverged banked fleet allocates %.0f vs per-device %.0f: overhead %.0f exceeds %d fresh builds (%.0f each) — divergence is not reusing the pooled builders",
			diverged, perDevice, overhead, devices, fresh)
	}
}

// TestBankedFleetObserverSeesEveryDevice pins that the batch path
// still fires the per-device observer exactly once per device.
func TestBankedFleetObserverSeesEveryDevice(t *testing.T) {
	const devices = 70
	seen := make([]int, devices)
	s, err := New(diffPlan(), WithSeed(2), WithWorkers(1),
		WithDeviceObserver(func(device int) { seen[device]++ }))
	if err != nil {
		t.Fatal(err)
	}
	fleetLines(t, s, devices)
	for d, n := range seen {
		if n != 1 {
			t.Fatalf("observer fired %d times for device %d", n, d)
		}
	}
}
