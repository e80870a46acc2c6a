package memtest

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

func TestBenchmark16Shape(t *testing.T) {
	p := Benchmark16()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	m := p.Memories[0]
	if m.Words != 512 || m.Width != 100 || p.ClockNs != 10 {
		t.Fatalf("benchmark parameters wrong: %+v", p)
	}
	// The paper's 1% defective cells map to 256 observable faults
	// under [8]'s model; the plan draws those directly.
	if got := int(float64(m.Words*m.Width) * m.DefectRate); got != 256 {
		t.Fatalf("benchmark fault count = %d, want 256", got)
	}
}

func TestHeterogeneousExampleValid(t *testing.T) {
	if err := HeterogeneousExample().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanValidateRejects calls Plan.Validate directly; the sentinel each
// case maps to is pinned through New by TestPlanValidationSentinels.
func TestPlanValidateRejects(t *testing.T) {
	bad := []Plan{
		{Name: "no-mems", ClockNs: 10},
		{Name: "bad-clock", Memories: []MemorySpec{{Name: "m", Words: 4, Width: 4}}},
		{Name: "bad-geom", ClockNs: 10, Memories: []MemorySpec{{Name: "m", Words: 0, Width: 4}}},
		{Name: "bad-rate", ClockNs: 10, Memories: []MemorySpec{{Name: "m", Words: 4, Width: 4, DefectRate: 2}}},
		{Name: "bad-drf", ClockNs: 10, Memories: []MemorySpec{{Name: "m", Words: 4, Width: 4, DRFCount: -1}}},
		{Name: "drf-over-cells", ClockNs: 10, Memories: []MemorySpec{{Name: "m", Words: 4, Width: 4, DRFCount: 17}}},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: validated", p.Name)
		}
	}
}

// TestHeterogeneousExampleJSONRoundTrip round-trips the shipped example,
// whose names and DRF counts the smaller TestPlanJSONRoundTrip plan lacks.
func TestHeterogeneousExampleJSONRoundTrip(t *testing.T) {
	p := HeterogeneousExample()
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "pktbuf") {
		t.Fatal("marshal lost memory names")
	}
	got, err := ParsePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip lost data: %+v", got)
	}
}

// TestFleetBuilderDeterministic pins that a plan's literal seeds always
// draw the same defects, on a fresh builder or a recycled one.
func TestFleetBuilderDeterministic(t *testing.T) {
	p := HeterogeneousExample()
	fb := p.newFleetBuilder()
	var truths [][][]fault.Fault
	for _, b := range []*fleetBuilder{fb, fb, p.newFleetBuilder()} {
		f, err := b.build(0, false)
		if err != nil {
			t.Fatal(err)
		}
		truths = append(truths, f.truth)
	}
	for i := 1; i < len(truths); i++ {
		if !reflect.DeepEqual(truths[0], truths[i]) {
			t.Fatalf("build %d drew different defects", i)
		}
	}
}

func TestFleetBuilderInjectsRequestedDefects(t *testing.T) {
	p := Plan{Name: "t", ClockNs: 10, Memories: []MemorySpec{
		{Name: "m", Words: 64, Width: 8, DefectRate: 0.05, DRFCount: 3, Seed: 7},
	}}
	f, err := p.newFleetBuilder().build(0, false)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 1 {
		t.Fatal("wrong fleet size")
	}
	truth := f.truth[0]
	drfs := 0
	for _, fl := range truth {
		if fl.Class == fault.DRF {
			drfs++
		}
	}
	if drfs != 3 {
		t.Fatalf("DRF count = %d, want 3", drfs)
	}
	if base := 64 * 8 * 5 / 100; len(truth) < base {
		t.Fatalf("truth %d < base %d", len(truth), base)
	}
	held := slices.Clone(f.mems[0].Faults())
	fault.Sort(held)
	if !slices.Equal(held, truth) {
		t.Fatalf("memory holds %v, truth %v", held, truth)
	}
}

func TestParsePlanRejectsBadJSON(t *testing.T) {
	if _, err := ParsePlan([]byte("{")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	_, err := ParsePlan([]byte(`{"name":"x","clock_ns":10,"memories":[]}`))
	if !errors.Is(err, ErrNoMemories) {
		t.Fatalf("invalid plan: err = %v, want ErrNoMemories", err)
	}
}

// FuzzParsePlan: arbitrary JSON must never panic, accepted plans must
// survive a marshal/parse round trip, and an accepted plan of at most
// 4096 cells must build a device promptly — succeeding or failing, but
// never grinding through an unbounded defect placement.
func FuzzParsePlan(f *testing.F) {
	seed, _ := HeterogeneousExample().Marshal()
	f.Add(seed)
	f.Add([]byte(`{"name":"x","clock_ns":10,"memories":[{"name":"m","words":4,"width":4}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"memories":[{"words":-1}]}`))
	f.Add([]byte(`{"name":"x","clock_ns":10,"memories":[{"name":"m","words":4,"width":4,"drf_count":1000000}]}`))
	f.Add([]byte(`{"name":"x","clock_ns":10,"memories":[{"name":"m","words":4,"width":4,"defect_rate":1,"drf_count":16}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			return
		}
		out, err := p.Marshal()
		if err != nil {
			t.Fatalf("accepted plan failed to marshal: %v", err)
		}
		again, err := ParsePlan(out)
		if err != nil {
			t.Fatalf("marshal output rejected: %v", err)
		}
		if again.Name != p.Name || len(again.Memories) != len(p.Memories) {
			t.Fatal("round trip changed the plan")
		}
		cells := 0
		for _, m := range p.Memories {
			if m.Words > 4096 || m.Width > 4096 {
				return
			}
			cells += m.Words * m.Width
		}
		if cells > 4096 {
			return
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			p.newFleetBuilder().build(1, true) // an error is an acceptable outcome
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("building %d cells took over 10 s: %s", cells, out)
		}
	})
}
