package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/memtest"
)

// acc accumulates the busy time and call count of one timed call site.
// Safe for concurrent use.
type acc struct{ ns, n atomic.Int64 }

func (a *acc) add(d time.Duration) { a.ns.Add(int64(d)); a.n.Add(1) }

// usPer is the accumulated busy time in microseconds per unit of n.
func (a *acc) usPer(n int64) float64 { return ratio(float64(a.ns.Load())/1e3, float64(n)) }

// usPerCall is the mean busy time per call in microseconds.
func (a *acc) usPerCall() float64 { return a.usPer(a.n.Load()) }

// fleetStats is what the timing decorator sees of the fleet engine: the
// device builds between lane loads, the loads, the bank passes and the
// per-device (scalar) runs.
type fleetStats struct {
	build  acc // gap between consecutive Load calls of one batch
	load   acc // BatchRunner.Load
	bank   acc // BatchRunner.RunBatch
	lanes  atomic.Int64
	scalar acc // EngineRunner.Run / Engine.Run
}

// timedEngine wraps a registered engine and times every call the fleet
// makes into it, from outside the program: it implements Engine,
// ReusableEngine and BatchEngine by delegation and returns exactly what
// the wrapped engine returns, so a decorated run's output is the
// undecorated run's byte for byte.
type timedEngine struct {
	inner    memtest.Engine
	reusable memtest.ReusableEngine
	batch    memtest.BatchEngine
	fs       *fleetStats
	tr       *tracer
	// op and parent name the span that fleet calls belong to; the
	// decorator serves one op at a time.
	op, parent atomic.Int64
}

func newTimedEngine(inner memtest.Engine, fs *fleetStats, tr *tracer) (*timedEngine, error) {
	re, ok := inner.(memtest.ReusableEngine)
	if !ok {
		return nil, fmt.Errorf("engine %q has no reusable runner", inner.Name())
	}
	be, ok := inner.(memtest.BatchEngine)
	if !ok {
		return nil, fmt.Errorf("engine %q has no batch runner", inner.Name())
	}
	return &timedEngine{inner: inner, reusable: re, batch: be, fs: fs, tr: tr}, nil
}

// setOp points the decorator's spans at the op's root span.
func (e *timedEngine) setOp(op, parent int64) { e.op.Store(op); e.parent.Store(parent) }

func (e *timedEngine) span(name string, start, end time.Time) {
	e.tr.add(e.op.Load(), 0, e.parent.Load(), name, start, end)
}

func (e *timedEngine) Name() string     { return e.inner.Name() }
func (e *timedEngine) Describe() string { return e.inner.Describe() }

func (e *timedEngine) Run(ctx context.Context, f *memtest.Fleet, opt memtest.EngineOptions) (*memtest.Report, error) {
	t0 := time.Now()
	rep, err := e.inner.Run(ctx, f, opt)
	t1 := time.Now()
	e.fs.scalar.add(t1.Sub(t0))
	e.span("fleet.scalar", t0, t1)
	return rep, err
}

func (e *timedEngine) NewRunner() memtest.EngineRunner {
	return &timedRunner{inner: e.reusable.NewRunner(), e: e}
}

func (e *timedEngine) NewBatchRunner() memtest.BatchRunner {
	return &timedBatch{inner: e.batch.NewBatchRunner(), e: e}
}

// timedRunner times the per-device path: the scalar fallback for
// lanes the bank cannot model.
type timedRunner struct {
	inner memtest.EngineRunner
	e     *timedEngine
}

func (r *timedRunner) Run(ctx context.Context, f *memtest.Fleet, opt memtest.EngineOptions) (*memtest.Report, error) {
	t0 := time.Now()
	rep, err := r.inner.Run(ctx, f, opt)
	t1 := time.Now()
	r.e.fs.scalar.add(t1.Sub(t0))
	r.e.span("fleet.scalar", t0, t1)
	return rep, err
}

// timedBatch times the bit-sliced path. Like the runner it wraps, it
// belongs to one fleet worker, so its batch-local fields need no lock.
type timedBatch struct {
	inner memtest.BatchRunner
	e     *timedEngine

	fillStart time.Time // start of Load(0): the batch's fill phase
	lastLoad  time.Time // end of the previous Load of this batch
}

func (b *timedBatch) Lanes() int { return b.inner.Lanes() }

// Load times the lane load; the gap since the previous lane's load in
// the same batch is that device's build.
func (b *timedBatch) Load(lane int, f *memtest.Fleet) (bool, error) {
	t0 := time.Now()
	if lane == 0 {
		b.fillStart = t0
	} else {
		b.e.fs.build.add(t0.Sub(b.lastLoad))
	}
	ok, err := b.inner.Load(lane, f)
	b.lastLoad = time.Now()
	b.e.fs.load.add(b.lastLoad.Sub(t0))
	return ok, err
}

func (b *timedBatch) RunBatch(ctx context.Context, lanes int, opt memtest.EngineOptions) ([]*memtest.Report, error) {
	t0 := time.Now()
	reps, err := b.inner.RunBatch(ctx, lanes, opt)
	t1 := time.Now()
	b.e.fs.bank.add(t1.Sub(t0))
	b.e.fs.lanes.Add(int64(lanes))
	b.e.span("fleet.fill", b.fillStart, t0)
	b.e.span("fleet.bank", t0, t1)
	return reps, err
}
