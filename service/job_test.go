package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/memtest"
)

// mustManager builds a manager over the default in-memory store.
func mustManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func unitPlan() memtest.Plan {
	return memtest.Plan{
		Name:    "unit",
		ClockNs: 10,
		Memories: []memtest.MemorySpec{
			{Name: "m0", Words: 16, Width: 4, DefectRate: 0.05, Seed: 1},
		},
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Jobs != 2 || c.Queue != 16 || c.FleetWorkers < 1 {
		t.Fatalf("defaults = %+v", c)
	}
}

// TestWorkerLedger pins the dynamic fleet-worker sharing arithmetic:
// an idle pool is lent whole, queued work splits what is available,
// device counts and requested limits cap the grant, and the 1-worker
// floor keeps a drained pool from stalling jobs.
func TestWorkerLedger(t *testing.T) {
	m := mustManager(t, Config{Jobs: 4, Queue: 8, FleetWorkers: 8})
	defer m.Close()
	big := &Job{Req: JobRequest{Devices: 1 << 20}}
	claim := func(j *Job, queued int) int {
		n, _ := m.claimWorkers(j, queued)
		return n
	}

	// Idle manager: the whole pool goes to the first job.
	if got := claim(big, 0); got != 8 {
		t.Fatalf("idle claim = %d, want 8", got)
	}
	// Pool drained: the floor grants one worker (bounded oversubscription).
	if got := claim(big, 0); got != 1 {
		t.Fatalf("drained claim = %d, want the 1-worker floor", got)
	}
	m.releaseWorkers(1)
	m.releaseWorkers(8)
	if h := m.Health(); h.IdleWorkers != 8 {
		t.Fatalf("idle workers after release = %d, want 8", h.IdleWorkers)
	}

	// Three jobs queued behind this one: fair split of 8 over 4.
	if got := claim(big, 3); got != 2 {
		t.Fatalf("split claim = %d, want 2", got)
	}
	m.releaseWorkers(2)

	// A small fleet never claims more workers than devices.
	if got := claim(&Job{Req: JobRequest{Devices: 3}}, 0); got != 3 {
		t.Fatalf("device-capped claim = %d, want 3", got)
	}
	m.releaseWorkers(3)
	// An explicit request caps the grant below the fair share.
	if got := claim(&Job{Req: JobRequest{Devices: 1 << 20, Workers: 2}}, 0); got != 2 {
		t.Fatalf("requested-capped claim = %d, want 2", got)
	}
	m.releaseWorkers(2)
}

func TestManagerRunsJobToDone(t *testing.T) {
	m := mustManager(t, Config{Jobs: 1, Queue: 2})
	defer m.Close()
	st, err := m.Submit(JobRequest{Plan: unitPlan(), Devices: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var lines int
	jobErr, err := m.Follow(context.Background(), st.ID, 0, func([]byte) error { lines++; return nil })
	if err != nil || jobErr != "" {
		t.Fatalf("follow: %q, %v", jobErr, err)
	}
	if lines != 3 {
		t.Fatalf("streamed %d lines, want 3", lines)
	}
	final, err := m.Status(st.ID)
	if err != nil || final.State != StateDone || final.Completed != 3 {
		t.Fatalf("final = %+v, %v", final, err)
	}
	if final.Started == nil || final.Finished == nil {
		t.Fatalf("missing lifecycle timestamps: %+v", final)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	// No scheduler workers pull from a closed-over manager with a
	// full-blocking setup; easiest deterministic route: saturate the
	// single worker with a job that outlives the test window.
	m := mustManager(t, Config{Jobs: 1, Queue: 2})
	defer m.Close()
	// Park the worker on a big fleet of the unit plan.
	if _, err := m.Submit(JobRequest{Plan: unitPlan(), Devices: 1 << 30, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(JobRequest{Plan: unitPlan(), Devices: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Cancel(queued.ID)
	if err != nil || st.State != StateCancelled {
		t.Fatalf("cancel queued = %+v, %v", st, err)
	}
	// A follower of the cancelled-while-queued job terminates at once
	// with the job error.
	jobErr, err := m.Follow(context.Background(), queued.ID, 0, func([]byte) error { return nil })
	if err != nil || jobErr == "" {
		t.Fatalf("follow cancelled job: %q, %v", jobErr, err)
	}
}

func TestManagerCloseCancelsEverything(t *testing.T) {
	m := mustManager(t, Config{Jobs: 1, Queue: 4})
	running, err := m.Submit(JobRequest{Plan: unitPlan(), Devices: 1 << 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	backlog, err := m.Submit(JobRequest{Plan: unitPlan(), Devices: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A live follower of the running job must be unblocked by Close.
	followDone := make(chan error, 1)
	go func() {
		_, err := m.Follow(context.Background(), running.ID, 0, func([]byte) error { return nil })
		followDone <- err
	}()
	m.Close()
	select {
	case err := <-followDone:
		if err != nil {
			t.Fatalf("follower err = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower never unblocked after Close")
	}
	for _, id := range []string{running.ID, backlog.ID} {
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateCancelled {
			t.Fatalf("job %s = %q after Close, want cancelled", id, st.State)
		}
	}
	if _, err := m.Submit(JobRequest{Plan: unitPlan(), Devices: 1}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after Close = %v, want ErrShuttingDown", err)
	}
	m.Close() // idempotent
}

func TestCloseAbortsInFlightDiagnose(t *testing.T) {
	m := mustManager(t, Config{Jobs: 1, Queue: 1})
	ctx, release, err := m.StartDiagnose(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if _, _, err := m.StartDiagnose(context.Background()); !errors.Is(err, ErrDiagnoseBusy) {
		t.Fatalf("second slot = %v, want ErrDiagnoseBusy", err)
	}
	m.Close()
	select {
	case <-ctx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("diagnose context not cancelled by Close")
	}
	if _, _, err := m.StartDiagnose(context.Background()); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("StartDiagnose after Close = %v, want ErrShuttingDown", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := mustManager(t, Config{Jobs: 1, Queue: 1})
	defer m.Close()
	if _, err := m.Submit(JobRequest{Plan: unitPlan()}); !errors.Is(err, ErrBadDevices) {
		t.Fatalf("no devices: %v", err)
	}
	if _, err := m.Submit(JobRequest{Plan: unitPlan(), Devices: 1, Scheme: "nope"}); !errors.Is(err, memtest.ErrUnknownScheme) {
		t.Fatalf("bad scheme: %v", err)
	}
	if _, err := m.Status("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("bad id: %v", err)
	}
}

func TestFollowContextCancellation(t *testing.T) {
	m := mustManager(t, Config{Jobs: 1, Queue: 2})
	defer m.Close()
	st, err := m.Submit(JobRequest{Plan: unitPlan(), Devices: 1 << 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err = m.Follow(ctx, st.ID, 0, func([]byte) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("follow err = %v, want context.Canceled", err)
	}
}
