package bisd

import (
	"context"
	"testing"

	"repro/internal/march"
	"repro/internal/sram"
	"repro/internal/trace"
)

// countdownCtx is a context whose Err flips to Canceled on the fuse-th
// call — it makes the cancellation point deterministic (no timers), so
// the test can pin exactly which poll observes it.
type countdownCtx struct {
	context.Context
	calls, fuse int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls >= c.fuse {
		return context.Canceled
	}
	return nil
}

// cancelArms runs one n x c memory through each proposed runner: the
// per-device ProposedRunner, and the BankRunner as a single lane. The
// bank runs untraced, so only the per-device arm is traced.
var cancelArms = []struct {
	name   string
	traced bool
	run    func(n, c int, test march.Test, opt ProposedOptions) (gotReport bool, err error)
}{
	{"per_device", true, func(n, c int, test march.Test, opt ProposedOptions) (bool, error) {
		rep, err := RunProposed([]*sram.Memory{sram.New(n, c)}, test, opt)
		return rep != nil, err
	}},
	{"bank", false, func(n, c int, test march.Test, opt ProposedOptions) (bool, error) {
		reps, err := NewBankRunner().Run([]*sram.MemoryBank{sram.NewMemoryBank(n, c)}, 1, test, opt)
		return reps != nil, err
	}},
}

// TestProposedCancelMidElement proves the address-loop poll: on a
// memory much larger than cancelPollInterval, a cancellation that
// lands after the first element has started must abort inside that
// element — before a second element ever starts — instead of running
// the element's full address sweep.
func TestProposedCancelMidElement(t *testing.T) {
	for _, arm := range cancelArms {
		t.Run(arm.name, func(t *testing.T) {
			rec := trace.NewRecorder(0)
			// Poll schedule: call 1 is element 0's entry check, call 2
			// is the first in-element poll at address
			// cancelPollInterval-1. A fuse of 2 therefore cancels
			// mid-element 0.
			ctx := &countdownCtx{Context: context.Background(), fuse: 2}
			gotReport, err := arm.run(2*cancelPollInterval, 4, march.MarchCW(4), ProposedOptions{Trace: rec, Ctx: ctx})
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if gotReport {
				t.Fatalf("got a report despite cancellation")
			}
			if starts := rec.Filter(trace.ElementStart); arm.traced && len(starts) != 1 {
				t.Fatalf("cancel mid-element leaked into %d element starts, want 1", len(starts))
			}
			if ctx.calls != 2 {
				t.Fatalf("run returned after %d ctx polls, want 2 (one per element entry plus one in-element)", ctx.calls)
			}
		})
	}
}

// TestProposedCancelBetweenElements keeps the coarse poll honest: a
// fuse past the first element's polls cancels at a later element
// boundary or in-element poll, never running the test to completion.
func TestProposedCancelBetweenElements(t *testing.T) {
	for _, arm := range cancelArms {
		t.Run(arm.name, func(t *testing.T) {
			// 64 words never reaches an in-element poll, so every poll
			// is an element entry; fuse 3 cancels entering the third
			// element.
			ctx := &countdownCtx{Context: context.Background(), fuse: 3}
			rec := trace.NewRecorder(0)
			_, err := arm.run(64, 8, march.MarchCW(8), ProposedOptions{Trace: rec, Ctx: ctx})
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if starts := rec.Filter(trace.ElementStart); arm.traced && len(starts) != 2 {
				t.Fatalf("got %d element starts before the element-boundary cancel, want 2", len(starts))
			}
			if ctx.calls != 3 {
				t.Fatalf("run returned after %d ctx polls, want 3 (one per element entry)", ctx.calls)
			}
		})
	}
}
