package memtest

import (
	"encoding/json"
	"fmt"

	"repro/internal/fault"
	"repro/internal/sram"
)

// MemorySpec describes one e-SRAM and its (synthetic) defect
// population.
type MemorySpec struct {
	// Name labels the instance, e.g. "pktbuf0".
	Name string `json:"name"`
	// Words and Width are the geometry (n and c).
	Words int `json:"words"`
	Width int `json:"width"`
	// DefectRate is the fraction of defective cells (0.01 in the
	// paper's case study); zero means a clean memory.
	DefectRate float64 `json:"defect_rate"`
	// DRFCount injects this many additional data-retention faults, the
	// defect class the paper adds NWRTM for.
	DRFCount int `json:"drf_count"`
	// Seed makes the defect draw reproducible. RunFleet derives a
	// distinct per-device seed from it.
	Seed int64 `json:"seed"`
}

// Validate rejects non-physical entries with typed sentinel errors.
func (m MemorySpec) Validate() error {
	if m.Words <= 0 || m.Width <= 0 {
		return fmt.Errorf("%w: memory %q is %dx%d", ErrBadGeometry, m.Name, m.Words, m.Width)
	}
	if m.DefectRate < 0 || m.DefectRate > 1 {
		return fmt.Errorf("%w: memory %q rate %v", ErrBadDefectRate, m.Name, m.DefectRate)
	}
	if m.DRFCount < 0 || m.DRFCount > m.Words*m.Width {
		return fmt.Errorf("%w: memory %q count %d for %d cells", ErrBadDRFCount, m.Name, m.DRFCount, m.Words*m.Width)
	}
	return nil
}

// Plan is a fleet of distributed e-SRAMs sharing one BISD controller —
// the unit a Session diagnoses. Plans round-trip through JSON so fleets
// can be described in files for the command-line tools.
type Plan struct {
	// Name labels the configuration.
	Name string `json:"name"`
	// ClockNs is the diagnosis clock period t in ns.
	ClockNs float64 `json:"clock_ns"`
	// Memories is the fleet.
	Memories []MemorySpec `json:"memories"`
}

// Validate checks the whole plan with typed sentinel errors.
func (p Plan) Validate() error {
	if len(p.Memories) == 0 {
		return fmt.Errorf("%w: plan %q", ErrNoMemories, p.Name)
	}
	if p.ClockNs <= 0 {
		return fmt.Errorf("%w: plan %q clock %v ns", ErrBadClock, p.Name, p.ClockNs)
	}
	names := make(map[string]bool, len(p.Memories))
	for _, m := range p.Memories {
		if err := m.Validate(); err != nil {
			return err
		}
		if names[m.Name] {
			return fmt.Errorf("%w: %q", ErrDuplicateMemoryName, m.Name)
		}
		names[m.Name] = true
	}
	return nil
}

// WidestWidth returns the largest IO width in the plan — the width the
// shared controller is sized for.
func (p Plan) WidestWidth() int {
	c := 0
	for _, m := range p.Memories {
		if m.Width > c {
			c = m.Width
		}
	}
	return c
}

// LargestWords returns the largest word count in the plan.
func (p Plan) LargestWords() int {
	n := 0
	for _, m := range p.Memories {
		if m.Words > n {
			n = m.Words
		}
	}
	return n
}

// Marshal renders the plan as indented JSON.
func (p Plan) Marshal() ([]byte, error) { return json.MarshalIndent(p, "", "  ") }

// ParsePlan reads a JSON plan and validates it.
func ParsePlan(data []byte) (Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return Plan{}, fmt.Errorf("memtest: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// Benchmark16 is the benchmark e-SRAM configuration of [16] used by the
// paper's case study: n = 512 words, c = 100 bits, t = 10 ns. The paper
// assumes 1 % of cells defective and, following [8]'s defect-to-fault
// mapping, a maximum of 256 observable faults per e-SRAM; the plan
// draws those 256 faults directly (rate 0.005 of the 51,200 cells).
func Benchmark16() Plan {
	return Plan{
		Name:    "benchmark-[16]",
		ClockNs: 10,
		Memories: []MemorySpec{
			{Name: "esram0", Words: 512, Width: 100, DefectRate: 0.005, Seed: 16},
		},
	}
}

// HeterogeneousExample is a small distributed fleet in the spirit of
// the paper's motivation: several buffers of different sizes and widths
// between computational blocks. The sizes are kept modest so the
// bit-accurate serial baseline (O((n·c)²) per shift pass) runs in
// seconds; paper-scale fleets use the analytic baseline mode.
func HeterogeneousExample() Plan {
	return Plan{
		Name:    "heterogeneous-example",
		ClockNs: 10,
		Memories: []MemorySpec{
			{Name: "pktbuf", Words: 64, Width: 16, DefectRate: 0.005, Seed: 1},
			{Name: "hdrfifo", Words: 32, Width: 12, DefectRate: 0.01, Seed: 2},
			{Name: "statsq", Words: 48, Width: 8, DefectRate: 0.008, DRFCount: 2, Seed: 3},
			{Name: "dmadesc", Words: 16, Width: 10, DefectRate: 0, DRFCount: 1, Seed: 4},
		},
	}
}

// Fleet is a built plan: behavioural memories with their defect
// populations injected, plus the ground truth those injections form.
// Engines receive a Fleet; its geometry accessors are the public
// surface third-party engines work against.
type Fleet struct {
	plan  Plan
	mems  []*sram.Memory
	truth [][]fault.Fault
}

// Len returns the number of memories in the fleet.
func (f *Fleet) Len() int { return len(f.mems) }

// ClockNs returns the plan's diagnosis clock period.
func (f *Fleet) ClockNs() float64 { return f.plan.ClockNs }

// MemoryName returns the i-th memory's configured name.
func (f *Fleet) MemoryName(i int) string { return f.plan.Memories[i].Name }

// Geometry returns the i-th memory's words and width.
func (f *Fleet) Geometry(i int) (words, width int) { return f.mems[i].N(), f.mems[i].C() }

// WidestWidth returns the fleet's largest IO width — the width the
// shared controller is sized for.
func (f *Fleet) WidestWidth() int { return f.plan.WidestWidth() }

// fleetBuilder is the one way a plan becomes a Fleet. It builds the
// plan's fleet repeatedly on recycled storage: the behavioural memories
// and fault generators are allocated once and every build resets,
// reseeds and re-injects them, so a fleet worker diagnosing millions of
// devices stops paying ~an allocation per row per device. Not safe for
// concurrent use; each fleet worker owns one.
type fleetBuilder struct {
	plan Plan
	mems []*sram.Memory
	gens []*fault.Generator
}

// newFleetBuilder allocates the plan's recyclable fleet storage. The
// plan must already be valid (New validates it).
func (p Plan) newFleetBuilder() *fleetBuilder {
	fb := &fleetBuilder{
		plan: p,
		mems: make([]*sram.Memory, len(p.Memories)),
		gens: make([]*fault.Generator, len(p.Memories)),
	}
	for i, m := range p.Memories {
		fb.mems[i] = sram.New(m.Words, m.Width)
		fb.gens[i] = fault.NewGenerator(m.Words, m.Width, m.Seed)
	}
	return fb
}

// build injects a fresh defect draw into the recycled memories. When
// derive is true, each memory's seed is replaced by a splitmix64 mix of
// base, the spec seed and the memory index — the deterministic
// per-device seeding RunFleet and WithSeed use; the same (base, plan)
// pair always builds the same fleet. The returned Fleet's memories are
// valid until the next build; its ground truth is freshly allocated
// (evaluated results may retain it).
func (fb *fleetBuilder) build(base int64, derive bool) (*Fleet, error) {
	truth := make([][]fault.Fault, len(fb.mems))
	for i, m := range fb.plan.Memories {
		seed := m.Seed
		if derive {
			seed = mixSeed(base, m.Seed, i)
		}
		fb.mems[i].Reset()
		fb.gens[i].Reseed(seed)
		injected, err := injectDefects(fb.mems[i], fb.gens[i], m)
		if err != nil {
			return nil, err
		}
		truth[i] = injected
	}
	return &Fleet{plan: fb.plan, mems: fb.mems, truth: truth}, nil
}

// injectDefects draws m's defect population from gen (which must be
// positioned at the start of its seeded stream) and injects it into mem
// (which must be fault-free), returning the sorted ground truth.
func injectDefects(mem *sram.Memory, gen *fault.Generator, m MemorySpec) ([]fault.Fault, error) {
	var injected []fault.Fault
	for _, f := range gen.FleetTyped(m.DefectRate, fault.PaperDefectTypes()) {
		if err := mem.Inject(f); err != nil {
			return nil, fmt.Errorf("memtest: memory %q: %v", m.Name, err)
		}
		injected = append(injected, f)
	}
	// DRFs are drawn until the requested count is placed; draws whose
	// victim collides with an earlier fault are redrawn
	// (deterministically, from the same seeded stream). Validate caps
	// the count at the cell count, which bounds the retries.
	for placed, attempts := 0, 0; placed < m.DRFCount; attempts++ {
		if attempts > 100*m.DRFCount+100 {
			return nil, fmt.Errorf("memtest: memory %q cannot place %d DRFs", m.Name, m.DRFCount)
		}
		f := gen.Random(fault.DRF)
		if err := mem.Inject(f); err != nil {
			continue
		}
		injected = append(injected, f)
		placed++
	}
	fault.Sort(injected)
	return injected, nil
}

// mixSeed derives a per-(base, seed, index) seed with a splitmix64-
// style finalizer, so fleet devices draw independent defect populations
// deterministically, independent of worker scheduling.
func mixSeed(base, seed int64, idx int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(seed) + 0xbf58476d1ce4e5b9*uint64(idx+1)
	return int64(fault.Splitmix64(z))
}
