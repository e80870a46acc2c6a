package memtest

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"
)

// collectFleet drains a RunFleet stream into JSON lines for comparison.
func collectFleet(t *testing.T, s *Session, devices int) []string {
	t.Helper()
	var lines []string
	for dr, err := range s.RunFleet(context.Background(), devices) {
		if err != nil {
			t.Fatal(err)
		}
		if dr.Device != len(lines) {
			t.Fatalf("device %d yielded at position %d", dr.Device, len(lines))
		}
		data, err := json.Marshal(dr)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(data))
	}
	return lines
}

func TestRunFleetDeterministicAcrossWorkerCounts(t *testing.T) {
	const devices = 12
	var got [][]string
	for _, workers := range []int{1, 3, 8} {
		s, err := New(smallPlan(), WithSeed(7), WithWorkers(workers), WithDRF())
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, collectFleet(t, s, devices))
	}
	for i := 1; i < len(got); i++ {
		if len(got[i]) != devices {
			t.Fatalf("stream %d yielded %d devices", i, len(got[i]))
		}
		for d := range got[0] {
			if got[i][d] != got[0][d] {
				t.Fatalf("worker-count run %d differs at device %d:\n%s\nvs\n%s",
					i, d, got[i][d], got[0][d])
			}
		}
	}
}

// collectRange drains a RunFleetRange stream into JSON lines, checking
// the device indices cover exactly [lo, hi) in order.
func collectRange(t *testing.T, s *Session, lo, hi int) []string {
	t.Helper()
	var lines []string
	for dr, err := range s.RunFleetRange(context.Background(), lo, hi) {
		if err != nil {
			t.Fatal(err)
		}
		if dr.Device != lo+len(lines) {
			t.Fatalf("device %d yielded at range position %d (lo=%d)", dr.Device, len(lines), lo)
		}
		data, err := json.Marshal(dr)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(data))
	}
	if len(lines) != hi-lo {
		t.Fatalf("range [%d, %d) yielded %d devices", lo, hi, len(lines))
	}
	return lines
}

// TestRunFleetRangeStitchesByteIdentical is the resume-primitive pin:
// [0, k) + [k, n) stitched together must be byte-identical to a full
// [0, n) run, at several split points and worker counts — the property
// the service's crash resume and the roadmap's shard dispatch both
// stand on.
func TestRunFleetRangeStitchesByteIdentical(t *testing.T) {
	const devices = 12
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		s, err := New(smallPlan(), WithSeed(7), WithWorkers(workers), WithDRF())
		if err != nil {
			t.Fatal(err)
		}
		want := collectFleet(t, s, devices)
		for _, k := range []int{0, 1, 5, devices - 1, devices} {
			got := append(collectRange(t, s, 0, k), collectRange(t, s, k, devices)...)
			if len(got) != devices {
				t.Fatalf("workers=%d k=%d: stitched %d devices", workers, k, len(got))
			}
			for d := range want {
				if got[d] != want[d] {
					t.Fatalf("workers=%d k=%d: stitched device %d differs:\n%s\nvs\n%s",
						workers, k, d, got[d], want[d])
				}
			}
		}
	}
}

func TestRunFleetRangeEmptyAndInvalid(t *testing.T) {
	s, err := New(smallPlan(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range s.RunFleetRange(context.Background(), 3, 3) {
		t.Fatalf("empty range yielded (err=%v)", err)
	}
	for _, r := range [][2]int{{-1, 2}, {5, 4}} {
		var streamErr error
		for _, err := range s.RunFleetRange(context.Background(), r[0], r[1]) {
			streamErr = err
		}
		if !errors.Is(streamErr, ErrBadDeviceRange) {
			t.Fatalf("range %v err = %v, want ErrBadDeviceRange", r, streamErr)
		}
	}
}

func TestRunFleetRangeUnorderedSuffix(t *testing.T) {
	const devices, lo = 10, 4
	ordered, err := New(smallPlan(), WithSeed(9), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	want := collectFleet(t, ordered, devices)
	unordered, err := New(smallPlan(), WithSeed(9), WithWorkers(3), WithFleetDelivery(Unordered))
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]string{}
	for dr, err := range unordered.RunFleetRange(context.Background(), lo, devices) {
		if err != nil {
			t.Fatal(err)
		}
		if dr.Device < lo || dr.Device >= devices {
			t.Fatalf("device %d outside [%d, %d)", dr.Device, lo, devices)
		}
		if _, dup := got[dr.Device]; dup {
			t.Fatalf("device %d yielded twice", dr.Device)
		}
		data, _ := json.Marshal(dr)
		got[dr.Device] = string(data)
	}
	if len(got) != devices-lo {
		t.Fatalf("unordered suffix yielded %d devices, want %d", len(got), devices-lo)
	}
	for d := lo; d < devices; d++ {
		if got[d] != want[d] {
			t.Fatalf("unordered suffix device %d differs from full ordered run", d)
		}
	}
}

// nonReusable hides an engine's ReusableEngine side, so the same fleet
// can run once with per-worker runners and once with per-device engine
// calls.
type nonReusable struct{ Engine }

func TestRunFleetRunnerReuseMatchesFreshEngine(t *testing.T) {
	const devices = 8
	withRunner, err := New(smallPlan(), WithSeed(5), WithWorkers(1), WithDRF())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := withRunner.Engine().(ReusableEngine); !ok {
		t.Fatal("proposed engine no longer reusable; test is vacuous")
	}
	want := collectFleet(t, withRunner, devices)

	inner, err := LookupEngine("proposed")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(smallPlan(), WithSeed(5), WithWorkers(1), WithDRF(),
		WithEngine(nonReusable{inner}))
	if err != nil {
		t.Fatal(err)
	}
	got := collectFleet(t, plain, devices)
	for d := range want {
		if got[d] != want[d] {
			t.Fatalf("runner-reuse device %d differs from fresh-engine run:\n%s\nvs\n%s",
				d, want[d], got[d])
		}
	}
}

func TestRunFleetDevicesDrawDistinctDefects(t *testing.T) {
	s, err := New(smallPlan(), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	lines := collectFleet(t, s, 6)
	seen := map[string]bool{}
	for _, l := range lines {
		// Strip the device/seed prefix so only the diagnosis is compared.
		var dr DeviceResult
		if err := json.Unmarshal([]byte(l), &dr); err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(dr.Result.Memories)
		seen[string(body)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all %d devices drew identical defect populations", len(lines))
	}
}

func TestRunFleetConcurrentStreams(t *testing.T) {
	// Two goroutines stream fleets from the same Session at once — the
	// -race CI step makes this a data-race probe for the worker pool.
	s, err := New(smallPlan(), WithSeed(11), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ref := collectFleet(t, s, 8)
	var wg sync.WaitGroup
	results := make([][]string, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lines []string
			for dr, err := range s.RunFleet(context.Background(), 8) {
				if err != nil {
					t.Error(err)
					return
				}
				data, _ := json.Marshal(dr)
				lines = append(lines, string(data))
			}
			results[g] = lines
		}()
	}
	wg.Wait()
	for g, lines := range results {
		if len(lines) != len(ref) {
			t.Fatalf("stream %d yielded %d devices, want %d", g, len(lines), len(ref))
		}
		for d := range ref {
			if lines[d] != ref[d] {
				t.Fatalf("concurrent stream %d differs at device %d", g, d)
			}
		}
	}
}

func TestRunFleetUnorderedSameResultSet(t *testing.T) {
	const devices = 12
	ordered, err := New(smallPlan(), WithSeed(7), WithWorkers(4), WithDRF())
	if err != nil {
		t.Fatal(err)
	}
	want := collectFleet(t, ordered, devices)

	unordered, err := New(smallPlan(), WithSeed(7), WithWorkers(4), WithDRF(),
		WithFleetDelivery(Unordered))
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[int]string, devices)
	for dr, err := range unordered.RunFleet(context.Background(), devices) {
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
		t.Fatalf("unordered stream yielded %d devices, want %d", len(got), devices)
	}
	// Re-keyed by device index, the unordered stream must be
	// byte-identical to the ordered one: same seeds, same payloads.
	for d, line := range want {
		if got[d] != line {
			t.Fatalf("unordered device %d differs from ordered run:\n%s\nvs\n%s", d, got[d], line)
		}
	}
}

func TestRunFleetUnorderedCancellation(t *testing.T) {
	s, err := New(smallPlan(), WithWorkers(2), WithFleetDelivery(Unordered))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	yielded := 0
	var streamErr error
	for _, err := range s.RunFleet(ctx, 500) {
		if err != nil {
			streamErr = err
			break
		}
		yielded++
		cancel()
	}
	if !errors.Is(streamErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", streamErr)
	}
	if yielded >= 500 {
		t.Fatalf("yielded all %d devices despite cancellation", yielded)
	}
}

func TestFleetDeliveryParseRoundTrip(t *testing.T) {
	for _, d := range []FleetDelivery{Ordered, Unordered} {
		got, err := ParseFleetDelivery(d.String())
		if err != nil || got != d {
			t.Fatalf("ParseFleetDelivery(%q) = %v, %v", d.String(), got, err)
		}
	}
	if _, err := ParseFleetDelivery("bogus"); !errors.Is(err, ErrBadFleetDelivery) {
		t.Fatalf("err = %v, want ErrBadFleetDelivery", err)
	}
	if _, err := New(smallPlan(), WithFleetDelivery(FleetDelivery(42))); !errors.Is(err, ErrBadFleetDelivery) {
		t.Fatalf("err = %v, want ErrBadFleetDelivery", err)
	}
}

func TestRunFleetCancellationStopsStream(t *testing.T) {
	s, err := New(smallPlan(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	const devices = 500
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	yielded := 0
	var streamErr error
	for _, err := range s.RunFleet(ctx, devices) {
		if err != nil {
			streamErr = err
			break
		}
		yielded++
		cancel() // cancel after the first successful device
	}
	if streamErr == nil {
		t.Fatalf("stream of %d devices completed despite cancellation after %d", devices, yielded)
	}
	if !errors.Is(streamErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", streamErr)
	}
	if yielded >= devices {
		t.Fatalf("yielded all %d devices", yielded)
	}
}

func TestRunFleetEarlyBreakReleasesWorkers(t *testing.T) {
	s, err := New(smallPlan(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range s.RunFleet(context.Background(), 50) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("consumed %d devices", n)
	}
	// The internal cancel must have released the pool; a fresh stream
	// on the same session still works.
	if lines := collectFleet(t, s, 3); len(lines) != 3 {
		t.Fatalf("follow-up stream yielded %d devices", len(lines))
	}
}

func TestRunFleetRejectsBadDeviceCount(t *testing.T) {
	s, err := New(smallPlan())
	if err != nil {
		t.Fatal(err)
	}
	var streamErr error
	for _, err := range s.RunFleet(context.Background(), 0) {
		streamErr = err
	}
	if !errors.Is(streamErr, ErrBadDeviceCount) {
		t.Fatalf("err = %v, want ErrBadDeviceCount", streamErr)
	}
}

// TestFleetBuilderMatchesFreshBuilds pins the memory-pooling path:
// every device a pooled RunFleet stream yields must be byte-identical
// to a fresh Session built with that device's derived seed — Reset +
// reseeded re-inject reproduces the fresh defect draw exactly.
func TestFleetBuilderMatchesFreshBuilds(t *testing.T) {
	const devices, seed = 8, int64(11)
	s, err := New(smallPlan(), WithSeed(seed), WithWorkers(3), WithDRF())
	if err != nil {
		t.Fatal(err)
	}
	got := collectFleet(t, s, devices)
	for d := range devices {
		ref, err := New(smallPlan(), WithSeed(deviceSeed(seed, d)), WithDRF())
		if err != nil {
			t.Fatal(err)
		}
		res, err := ref.RunAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(DeviceResult{Device: d, Seed: deviceSeed(seed, d), Result: res})
		if err != nil {
			t.Fatal(err)
		}
		if got[d] != string(want) {
			t.Fatalf("pooled device %d differs from fresh build:\n%s\nvs\n%s", d, got[d], want)
		}
	}
}

// TestFleetBuilderRecyclesAllocations pins the point of the pooling:
// building a device's fleet on recycled memories must allocate a small
// fraction of what a fresh build does.
func TestFleetBuilderRecyclesAllocations(t *testing.T) {
	plan := smallPlan()
	fb := plan.newFleetBuilder()
	if _, err := fb.build(3, true); err != nil {
		t.Fatal(err) // warm the recycled fault tables
	}
	pooled := testing.AllocsPerRun(50, func() {
		if _, err := fb.build(3, true); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(50, func() {
		if _, err := plan.newFleetBuilder().build(3, true); err != nil {
			t.Fatal(err)
		}
	})
	if pooled > fresh/3 {
		t.Fatalf("pooled build allocates %.0f, fresh %.0f — pooling is not paying", pooled, fresh)
	}
}
