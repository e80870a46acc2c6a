package memtest

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// EngineOptions is the engine-facing slice of a Session's
// configuration. Every field is public so third-party engines receive
// the same knobs the built-ins do.
type EngineOptions struct {
	// ClockNs is the diagnosis clock period t in ns (defaulted from the
	// plan by the Session).
	ClockNs float64
	// IncludeDRF asks the engine to diagnose data-retention faults:
	// the NWRTM merge for the proposed scheme (no added delay), the
	// 2x100 ms delay phase for the baseline.
	IncludeDRF bool
	// DeliveryOrder is the proposed scheme's background serialization
	// order; MSBFirst is correct, LSBFirst reproduces the Fig. 4
	// hazard.
	DeliveryOrder Order
	// Test overrides the March test for test-programmable engines; nil
	// selects March CW sized for the fleet's widest memory (merged
	// with NWRTM when IncludeDRF is set).
	Test *MarchTest
	// AnalyticBaseline forces the baseline's coarse accounting model.
	// It is auto-enabled when the largest memory exceeds
	// AnalyticThresholdCells, where bit-level chain simulation becomes
	// impractical.
	AnalyticBaseline bool
	// Trace, when non-nil, receives cycle-stamped engine events.
	Trace *TraceRecorder
}

// AnalyticThresholdCells is the largest memory (in cells) the
// bit-accurate baseline simulation is attempted for.
const AnalyticThresholdCells = 16384

// Engine is one diagnosis architecture. Implementations run the whole
// fleet (the modeled hardware diagnoses all memories in parallel under
// one shared controller) and return the raw cycle-level Report; the
// Session layers truth evaluation, repair and streaming on top.
//
// Engines must honor ctx: a cancelled context should abort the run
// promptly — the built-ins check between March elements or baseline
// iterations — and return ctx.Err().
type Engine interface {
	// Name is the stable registry key, also the CLI -scheme value
	// (e.g. "proposed").
	Name() string
	// Describe is the human-readable architecture label used in
	// reports (e.g. "baseline-[7,8]").
	Describe() string
	// Run diagnoses the fleet.
	Run(ctx context.Context, f *Fleet, opt EngineOptions) (*Report, error)
}

// EngineRunner is reusable per-worker engine state: Run behaves exactly
// like Engine.Run, but scratch buffers, controller blocks and other
// geometry-sized state survive between calls. A runner is NOT safe for
// concurrent use — it exists precisely so each fleet worker can own
// one.
type EngineRunner interface {
	Run(ctx context.Context, f *Fleet, opt EngineOptions) (*Report, error)
}

// ReusableEngine is implemented by engines whose per-run state can be
// hoisted into a reusable runner. RunFleet gives each of its workers
// one runner, so diagnosing a million same-plan devices allocates
// engine state per worker, not per device; engines that don't implement
// it are simply called per device. The built-in "proposed" engine
// implements it.
type ReusableEngine interface {
	Engine
	// NewRunner returns a fresh, unshared runner.
	NewRunner() EngineRunner
}

// BatchRunner is reusable per-worker state for bit-sliced batch
// execution: up to Lanes same-plan devices are loaded one per lane and
// diagnosed by a single schedule pass, returning one Report per lane.
// The per-lane Reports must be byte-identical to what the engine's
// per-device path would produce for each device alone. Like an
// EngineRunner, a BatchRunner is NOT safe for concurrent use — each
// fleet worker owns one.
type BatchRunner interface {
	// Lanes is the batch width (64 for the built-in bit-sliced bank).
	Lanes() int
	// Load stages one device's built fleet into the given lane.
	// Load(0, f) starts a new batch: the runner (re)fits itself to f's
	// geometry and clears all lanes. bankable=false reports a device
	// whose faults the batch path cannot model (sram.ErrUnbankable
	// classes); the caller must re-diagnose that device on the
	// per-device path and discard its lane's report. A non-nil error is
	// a hard failure for that device.
	Load(lane int, f *Fleet) (bankable bool, err error)
	// RunBatch diagnoses lanes [0, lanes) in one schedule pass and
	// returns their Reports, index = lane.
	RunBatch(ctx context.Context, lanes int, opt EngineOptions) ([]*Report, error)
}

// BatchEngine is implemented by engines that can advertise a bit-sliced
// batch path. RunFleetRange detects it and groups its device window
// into Lanes-wide batches, falling back to the per-device path only for
// unbankable lanes; engines that don't implement it run per device.
// The built-in "proposed" engine implements it.
type BatchEngine interface {
	Engine
	// NewBatchRunner returns a fresh, unshared batch runner.
	NewBatchRunner() BatchRunner
}

var (
	engineMu sync.RWMutex
	engines  = map[string]Engine{}
)

// RegisterEngine adds an engine to the scheme registry under its Name.
// It returns ErrDuplicateEngine if the name is taken; the built-in
// names are "proposed", "baseline", "singledir" and "rawsim".
func RegisterEngine(e Engine) error {
	engineMu.Lock()
	defer engineMu.Unlock()
	if _, ok := engines[e.Name()]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateEngine, e.Name())
	}
	engines[e.Name()] = e
	return nil
}

// UnregisterEngine removes the engine registered under name, if any.
// Sessions already built keep the engine they resolved; it exists so a
// test (or a plug-in host) can retire an engine it registered and
// register the name again later.
func UnregisterEngine(name string) {
	engineMu.Lock()
	defer engineMu.Unlock()
	delete(engines, name)
}

// LookupEngine resolves a scheme name, returning ErrUnknownScheme for
// names no engine registered.
func LookupEngine(name string) (Engine, error) {
	engineMu.RLock()
	defer engineMu.RUnlock()
	e, ok := engines[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownScheme, name)
	}
	return e, nil
}

// Schemes lists the registered scheme names, sorted.
func Schemes() []string {
	engineMu.RLock()
	defer engineMu.RUnlock()
	names := make([]string, 0, len(engines))
	for n := range engines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func mustRegister(e Engine) {
	if err := RegisterEngine(e); err != nil {
		panic(err)
	}
}
