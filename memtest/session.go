package memtest

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/repair"
	"repro/internal/timing"
)

// Session is a configured diagnosis run: one plan, one engine, one set
// of options. Sessions are created with New and executed with Run,
// RunAll or RunFleet; a Session is safe for concurrent fleet execution
// (RunFleet) but Run/RunAll store the last report for Trace access and
// should not race with each other.
type Session struct {
	plan     Plan
	engine   Engine
	eopt     EngineOptions
	budget   Budget
	workers  int
	seed     int64
	seedSet  bool
	delivery FleetDelivery

	report *Report // last single-run report, for evaluate/Trace
	// runner, when non-nil, executes the engine with reusable state;
	// RunFleet gives each worker's private Session copy its own (see
	// ReusableEngine).
	runner EngineRunner
	// observe, when non-nil, is called once per device as a fleet
	// worker finishes diagnosing it (see WithDeviceObserver).
	observe func(device int)
	// noBatch forces the per-device fleet path even when the engine is
	// a BatchEngine — the differential suite's reference arm.
	noBatch bool
	// divergeLane, when non-nil, forces the batch path to treat the
	// given device as unbankable — a test hook exercising the
	// lane-divergence slow path on plans that never draw unbankable
	// fault classes.
	divergeLane func(device int) bool
	// truthBuf recycles the per-lane ground-truth staging across a
	// worker's batches.
	truthBuf [][][]fault.Fault
}

// Option configures a Session; see the With* constructors.
type Option func(*Session) error

// WithScheme selects the diagnosis engine by registry name ("proposed",
// "baseline", "singledir", "rawsim", or any name registered via
// RegisterEngine). New fails with ErrUnknownScheme for unknown names.
func WithScheme(name string) Option {
	return func(s *Session) error {
		e, err := LookupEngine(name)
		if err != nil {
			return err
		}
		s.engine = e
		return nil
	}
}

// WithEngine plugs an engine instance in directly, bypassing the
// registry.
func WithEngine(e Engine) Option {
	return func(s *Session) error {
		s.engine = e
		return nil
	}
}

// WithDRF enables data-retention-fault diagnosis: the NWRTM merge for
// the proposed scheme (no added delay), the 2x100 ms delay phase for
// the baseline.
func WithDRF() Option {
	return func(s *Session) error {
		s.eopt.IncludeDRF = true
		return nil
	}
}

// WithWorkers sets the RunFleet worker-pool size; n < 1 selects
// GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(s *Session) error {
		s.workers = n
		return nil
	}
}

// WithSeed sets the base seed: every memory's defect draw is reseeded
// with a deterministic mix of this base, the spec seed and the memory
// index (and, under RunFleet, the device index). Without WithSeed a
// single Run uses the plan's literal per-memory seeds.
func WithSeed(seed int64) Option {
	return func(s *Session) error {
		s.seed = seed
		s.seedSet = true
		return nil
	}
}

// WithRepair configures per-memory spare repair allocation after
// diagnosis and fleet yield accounting.
func WithRepair(b Budget) Option {
	return func(s *Session) error {
		s.budget = b
		return nil
	}
}

// WithTrace attaches a recorder that receives cycle-stamped engine
// events (deliveries, element starts, miscompares).
func WithTrace(r *TraceRecorder) Option {
	return func(s *Session) error {
		s.eopt.Trace = r
		return nil
	}
}

// WithDeliveryOrder sets the proposed scheme's background serialization
// order; LSBFirst reproduces the Fig. 4 hazard.
func WithDeliveryOrder(o Order) Option {
	return func(s *Session) error {
		s.eopt.DeliveryOrder = o
		return nil
	}
}

// FleetDelivery selects how RunFleet orders its result stream.
type FleetDelivery int

const (
	// Ordered (the default) yields results strictly in device order:
	// the stream is deterministic at any worker count, at the cost of
	// head-of-line buffering while a slow device blocks faster ones.
	Ordered FleetDelivery = iota
	// Unordered yields each device's result as soon as its worker
	// finishes — the latency-sensitive streaming mode network
	// consumers use. The result set is identical to Ordered (same
	// per-device seeds and payloads); only the interleaving varies
	// with worker scheduling.
	Unordered
)

// String returns the wire name of the delivery mode.
func (d FleetDelivery) String() string {
	switch d {
	case Ordered:
		return "ordered"
	case Unordered:
		return "unordered"
	}
	return fmt.Sprintf("FleetDelivery(%d)", int(d))
}

// ParseFleetDelivery resolves the wire names "ordered" and "unordered";
// it fails with ErrBadFleetDelivery for anything else.
func ParseFleetDelivery(s string) (FleetDelivery, error) {
	switch s {
	case "ordered":
		return Ordered, nil
	case "unordered":
		return Unordered, nil
	}
	return Ordered, fmt.Errorf("%w: %q", ErrBadFleetDelivery, s)
}

// WithFleetDelivery selects Ordered (the default) or Unordered RunFleet
// result delivery.
func WithFleetDelivery(d FleetDelivery) Option {
	return func(s *Session) error {
		if d != Ordered && d != Unordered {
			return fmt.Errorf("%w: %d", ErrBadFleetDelivery, int(d))
		}
		s.delivery = d
		return nil
	}
}

// WithDeviceObserver installs fn, called with the device index each
// time a fleet worker finishes diagnosing a device — at compute time,
// before any delivery ordering, so it sees live progress even while
// ordered delivery is head-of-line blocked on an earlier device. fn is
// called concurrently from every fleet worker and must be safe for
// concurrent use; it should also be allocation-free if the caller
// cares about the worker loop's steady-state alloc behaviour (an
// atomic counter qualifies — this is memtestd's live-metrics hook).
// A nil fn disables the hook.
func WithDeviceObserver(fn func(device int)) Option {
	return func(s *Session) error {
		s.observe = fn
		return nil
	}
}

// WithMarchTest overrides the March test for test-programmable engines.
func WithMarchTest(t MarchTest) Option {
	return func(s *Session) error {
		if err := t.Validate(); err != nil {
			return err
		}
		s.eopt.Test = &t
		return nil
	}
}

// WithAnalyticBaseline forces the baseline engine's coarse accounting
// model even for small fleets.
func WithAnalyticBaseline() Option {
	return func(s *Session) error {
		s.eopt.AnalyticBaseline = true
		return nil
	}
}

// New validates the plan, applies the options and resolves the engine
// (default "proposed"). Errors wrap the package's sentinel errors.
func New(plan Plan, opts ...Option) (*Session, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	s := &Session{plan: plan}
	s.eopt.ClockNs = plan.ClockNs
	for _, o := range opts {
		if err := o(s); err != nil {
			return nil, err
		}
	}
	if s.engine == nil {
		e, err := LookupEngine("proposed")
		if err != nil {
			return nil, err
		}
		s.engine = e
	}
	return s, nil
}

// Plan returns the session's plan.
func (s *Session) Plan() Plan { return s.plan }

// Engine returns the resolved engine.
func (s *Session) Engine() Engine { return s.engine }

// Trace returns the events recorded by the WithTrace recorder, if any.
func (s *Session) Trace() []TraceEvent { return s.eopt.Trace.Events() }

// runOnce builds one device's fleet on fb and runs the engine on it.
func (s *Session) runOnce(ctx context.Context, fb *fleetBuilder, base int64, derive bool) (*Fleet, *Report, error) {
	f, err := fb.build(base, derive)
	if err != nil {
		return nil, nil, err
	}
	run := s.engine.Run
	if s.runner != nil {
		run = s.runner.Run
	}
	rep, err := run(ctx, f, s.eopt)
	if err != nil {
		return nil, nil, err
	}
	return f, rep, nil
}

// Run executes the session's engine once and streams the evaluated
// per-memory Diagnosis values. The sequence yields a single non-nil
// error (with a zero Diagnosis) if the engine fails or ctx is
// cancelled; engines abort promptly on cancellation. The returned
// iterator is single-use in spirit: each range over it re-executes the
// diagnosis.
func (s *Session) Run(ctx context.Context) iter.Seq2[Diagnosis, error] {
	return func(yield func(Diagnosis, error) bool) {
		f, rep, err := s.runOnce(ctx, s.plan.newFleetBuilder(), s.seed, s.seedSet)
		if err != nil {
			yield(Diagnosis{}, err)
			return
		}
		s.report = rep
		for i := range rep.Memories {
			if err := ctx.Err(); err != nil {
				yield(Diagnosis{}, err)
				return
			}
			if !yield(s.evaluate(f, rep, i), nil) {
				return
			}
		}
	}
}

// RunAll executes the session and materializes the full Result,
// including fleet yield statistics when a repair budget is set.
func (s *Session) RunAll(ctx context.Context) (*Result, error) {
	f, rep, err := s.runOnce(ctx, s.plan.newFleetBuilder(), s.seed, s.seedSet)
	if err != nil {
		return nil, err
	}
	s.report = rep
	return s.resultFrom(f, rep), nil
}

// resultFrom evaluates every memory of a completed run.
func (s *Session) resultFrom(f *Fleet, rep *Report) *Result {
	return s.resultFromTruth(f.truth, rep)
}

// resultFromTruth is resultFrom against staged ground truth: the banked
// fleet path recycles its builder memories lane to lane, so by the time
// a batch's reports come back only the per-lane truth (freshly
// allocated per build) survives — which is all evaluation needs.
func (s *Session) resultFromTruth(truth [][]fault.Fault, rep *Report) *Result {
	res := &Result{
		Engine: s.engine.Name(),
		Scheme: s.engine.Describe(),
		Plan:   s.plan.Name,
		Report: rep,
	}
	var locatedPerMem [][]Cell
	for i := range rep.Memories {
		res.Memories = append(res.Memories, s.evaluateMemory(s.plan.Memories[i].Name, truth[i], &rep.Memories[i]))
		locatedPerMem = append(locatedPerMem, rep.Memories[i].Located)
	}
	if s.budget != (Budget{}) {
		y := repair.FleetYield(locatedPerMem, s.budget)
		res.Yield = &y
	}
	return res
}

// DeviceResult pairs one fleet device's index and derived seed with its
// full diagnosis result.
type DeviceResult struct {
	// Device is the device index in [0, devices).
	Device int `json:"device"`
	// Seed is the per-device base seed the defect draw derived from.
	Seed int64 `json:"seed"`
	// Result is the device's evaluated diagnosis.
	Result *Result `json:"result"`
}

// RunFleet diagnoses `devices` instances of the session's plan — the
// fleet-scale workload: each device is the same design with an
// independent, deterministically seeded defect population (device d
// mixes the session seed with d, so results are reproducible at any
// worker count). Devices fan out across a worker pool (WithWorkers,
// default GOMAXPROCS) and results stream back without materializing
// the whole fleet: in device order by default, or as each worker
// finishes under WithFleetDelivery(Unordered). On cancellation the
// stream ends with ctx.Err() after at most the in-flight devices'
// work. RunFleet is the full range [0, devices) of RunFleetRange.
func (s *Session) RunFleet(ctx context.Context, devices int) iter.Seq2[DeviceResult, error] {
	return func(yield func(DeviceResult, error) bool) {
		if devices <= 0 {
			yield(DeviceResult{}, fmt.Errorf("%w: %d", ErrBadDeviceCount, devices))
			return
		}
		s.RunFleetRange(ctx, 0, devices)(yield)
	}
}

// RunFleetRange diagnoses the device suffix [lo, hi) of a fleet:
// device indices, seeds and payloads are exactly those RunFleet would
// produce for the same positions, so stitching [0, k) and [k, n)
// streams reproduces a full [0, n) run byte for byte at any worker
// count. This is the resume/sharding primitive: a run interrupted
// after k devices — or one shard of a plan split across nodes — is
// completed by re-running only the missing range. An empty range
// (lo == hi) yields nothing and returns immediately; lo < 0 or
// hi < lo fails with ErrBadDeviceRange.
func (s *Session) RunFleetRange(ctx context.Context, lo, hi int) iter.Seq2[DeviceResult, error] {
	return func(yield func(DeviceResult, error) bool) {
		if lo < 0 || hi < lo {
			yield(DeviceResult{}, fmt.Errorf("%w: [%d, %d)", ErrBadDeviceRange, lo, hi))
			return
		}
		if lo == hi {
			return
		}
		devices := hi - lo
		// A private cancel releases the workers when the consumer stops
		// iterating early, so no goroutine outlives the stream.
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		workers := s.workers
		if workers < 1 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > devices {
			workers = devices
		}

		results := make(chan fleetMsg, workers)
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		// Each worker owns a shallow Session copy so per-run state
		// (report caching, trace) never races across devices, plus —
		// when the engine supports it — a private reusable runner, so
		// engine scratch state is built once per worker instead of per
		// device, and a private fleet builder, so each device's
		// memories recycle the worker's allocation instead of
		// rebuilding ~an allocation per row per device. When the engine
		// is a BatchEngine, workers claim whole bit-sliced batches
		// instead of single devices: one schedule pass diagnoses up to
		// BatchRunner.Lanes devices at once, and only unbankable lanes
		// fall back to the per-device path. Both paths yield
		// byte-identical per-device results, so the claiming granularity
		// never shows in the stream.
		reusable, _ := s.engine.(ReusableEngine)
		batcher, _ := s.engine.(BatchEngine)
		if s.noBatch {
			batcher = nil
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				local := *s
				local.eopt.Trace = nil // trace is single-run only
				if reusable != nil {
					local.runner = reusable.NewRunner()
				}
				fb := s.plan.newFleetBuilder()
				send := func(device int, res *Result, err error) bool {
					select {
					case results <- fleetMsg{device, res, err}:
						return true
					case <-ctx.Done():
						return false
					}
				}
				if batcher != nil {
					br := batcher.NewBatchRunner()
					lanes := br.Lanes()
					for {
						d0 := int(next.Add(int64(lanes))) - lanes
						if d0 >= hi || ctx.Err() != nil {
							return
						}
						size := lanes
						if hi-d0 < size {
							size = hi - d0
						}
						if !local.runBatch(ctx, br, fb, d0, size, send) {
							return
						}
					}
				}
				for {
					d := int(next.Add(1)) - 1
					if d >= hi || ctx.Err() != nil {
						return
					}
					f, rep, err := local.runOnce(ctx, fb, deviceSeed(s.seed, d), true)
					var res *Result
					if err == nil {
						res = local.resultFrom(f, rep)
						if local.observe != nil {
							local.observe(d)
						}
					}
					if !send(d, res, err) {
						return
					}
				}
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()

		if s.delivery == Unordered {
			// Unordered: yield each device the moment its worker
			// delivers it — minimum latency, scheduling-dependent
			// interleaving.
			for yielded := 0; yielded < devices; yielded++ {
				select {
				case r := <-results:
					if r.err != nil {
						yield(DeviceResult{Device: r.device}, r.err)
						return
					}
					if !yield(DeviceResult{Device: r.device, Seed: deviceSeed(s.seed, r.device), Result: r.res}, nil) {
						return
					}
				case <-ctx.Done():
					<-done // workers exit on ctx; don't leak them
					yield(DeviceResult{}, ctx.Err())
					return
				}
			}
			return
		}

		// Reorder: yield strictly in device order so the stream is
		// deterministic regardless of worker scheduling.
		pending := make(map[int]fleetMsg)
		nextYield := lo
		for nextYield < hi {
			if sl, ok := pending[nextYield]; ok {
				delete(pending, nextYield)
				if sl.err != nil {
					yield(DeviceResult{Device: nextYield}, sl.err)
					return
				}
				if !yield(DeviceResult{Device: nextYield, Seed: deviceSeed(s.seed, nextYield), Result: sl.res}, nil) {
					return
				}
				nextYield++
				continue
			}
			select {
			case r := <-results:
				pending[r.device] = r
			case <-ctx.Done():
				<-done // workers exit on ctx; don't leak them
				yield(DeviceResult{}, ctx.Err())
				return
			}
		}
	}
}

// fleetMsg is one device's outcome in flight from a fleet worker to
// the delivery goroutine.
type fleetMsg struct {
	device int
	res    *Result
	err    error
}

// runBatch diagnoses devices [d0, d0+size) as one bit-sliced batch:
// each device is built on the worker's pooled builder fb (the same build,
// seeds and defect draw as the per-device path) and its fault list is
// staged into lane d-d0; one RunBatch pass then produces every lane's
// report. Lanes the batch cannot model — unbankable fault classes, or
// a test-injected divergence — are re-diagnosed on the per-device slow
// path, reusing the worker's pooled builder and runner. Results are
// sent in ascending device order; on a build/load error, the already
// staged lanes still run and deliver (ordered delivery would otherwise
// deadlock waiting on them) before the failing device's error is sent.
// It reports whether the worker should keep claiming batches.
func (s *Session) runBatch(ctx context.Context, br BatchRunner, fb *fleetBuilder, d0, size int, send func(int, *Result, error) bool) bool {
	truths := s.truthBuf[:0]
	var divergent uint64
	loadErr := error(nil)
	errDev := -1
	for l := 0; l < size; l++ {
		d := d0 + l
		f, err := fb.build(deviceSeed(s.seed, d), true)
		if err == nil {
			var bankable bool
			bankable, err = br.Load(l, f)
			if err == nil && (!bankable || (s.divergeLane != nil && s.divergeLane(d))) {
				divergent |= 1 << uint(l)
			}
		}
		if err != nil {
			loadErr, errDev = err, d
			break
		}
		// The builder recycles memories across builds, but each build's
		// ground truth is freshly allocated, so staging it is safe.
		truths = append(truths, f.truth)
	}
	s.truthBuf = truths
	if loaded := len(truths); loaded > 0 {
		reports, err := br.RunBatch(ctx, loaded, s.eopt)
		if err != nil {
			// A batch-level failure (cancellation, bad test) aborts every
			// lane; attribute it to the batch's first device.
			send(d0, nil, err)
			return false
		}
		for l := 0; l < loaded; l++ {
			d := d0 + l
			var res *Result
			if divergent>>uint(l)&1 != 0 {
				f, rep, err := s.runOnce(ctx, fb, deviceSeed(s.seed, d), true)
				if err != nil {
					send(d, nil, err)
					return false
				}
				res = s.resultFrom(f, rep)
			} else {
				res = s.resultFromTruth(truths[l], reports[l])
			}
			if s.observe != nil {
				s.observe(d)
			}
			if !send(d, res, nil) {
				return false
			}
		}
	}
	if loadErr != nil {
		send(errDev, nil, loadErr)
		return false
	}
	return true
}

// deviceSeed derives device d's base seed from the session seed.
func deviceSeed(base int64, device int) int64 {
	return mixSeed(base, int64(device)+0x5eed, device)
}

// Diagnose is the one-shot convenience: New + RunAll.
func Diagnose(ctx context.Context, plan Plan, opts ...Option) (*Result, error) {
	s, err := New(plan, opts...)
	if err != nil {
		return nil, err
	}
	return s.RunAll(ctx)
}

// Comparison pairs a proposed-scheme run against the baseline on the
// same plan, the paper's Sec. 4.2 experiment.
type Comparison struct {
	Proposed *Result `json:"proposed"`
	Baseline *Result `json:"baseline"`
	// MeasuredReduction is T_baseline / T_proposed from the
	// cycle-accurate engines.
	MeasuredReduction float64 `json:"measured_reduction"`
	// AnalyticReduction evaluates Eq. (3)/(4) with the baseline's
	// measured iteration count k and the fleet's largest geometry.
	AnalyticReduction float64 `json:"analytic_reduction"`
}

// Compare runs both architectures on the plan and derives the reduction
// factors.
func Compare(ctx context.Context, plan Plan, includeDRF bool, opts ...Option) (*Comparison, error) {
	// The scheme selections are appended after the caller's options so
	// a stray WithScheme/WithEngine cannot turn the comparison into the
	// same engine vs itself; shared is a fresh slice so the appends
	// below never alias the caller's backing array.
	shared := make([]Option, 0, len(opts)+2)
	shared = append(shared, opts...)
	if includeDRF {
		shared = append(shared, WithDRF())
	}
	propS, err := New(plan, append(shared[:len(shared):len(shared)], WithScheme("proposed"))...)
	if err != nil {
		return nil, err
	}
	baseS, err := New(plan, append(shared[:len(shared):len(shared)], WithScheme("baseline"))...)
	if err != nil {
		return nil, err
	}
	prop, err := propS.RunAll(ctx)
	if err != nil {
		return nil, err
	}
	base, err := baseS.RunAll(ctx)
	if err != nil {
		return nil, err
	}
	cmp := &Comparison{Proposed: prop, Baseline: base}
	cmp.MeasuredReduction = base.TimeNs() / prop.TimeNs()

	p := timing.Params{N: plan.LargestWords(), C: plan.WidestWidth(), ClockNs: plan.ClockNs, K: base.Report.Iterations}
	// The analytic equation must answer the same question the engines
	// ran: key it off the sessions' effective DRF setting, so a caller-
	// supplied WithDRF() cannot desynchronize the two reduction figures.
	if propS.eopt.IncludeDRF {
		cmp.AnalyticReduction = timing.ReductionWithDRF(p)
	} else {
		cmp.AnalyticReduction = timing.ReductionNoDRF(p)
	}
	return cmp, nil
}
