// Command resumesmoke is the CI kill-9 crash-resume smoke test: it
// builds memtestd, runs it against a scratch data directory, submits a
// fleet job, SIGKILLs the daemon mid-job (a real crash — no graceful
// anything), restarts it on the same directory, and asserts that
//
//   - the job resumes and completes (status resumed, all devices),
//   - the final result stream is byte-identical to the same seeded
//     session run in-process (the crash left no gap, duplicate or
//     reordering),
//   - a reconnecting client that was following the stream when the
//     process died rides through the restart and sees one seamless,
//     gap-free device sequence,
//   - /v1/healthz accounts for the resume,
//   - /metrics exposes live device counters mid-run and, after the
//     restart, resume counters that agree with healthz,
//   - a range job whose window starts mid-64-lane-batch (first_device
//     37) streams the exact byte-identical suffix of the full run.
//
// It exercises the same contract as the service package's resume tests
// but with real processes, real SIGKILL and real files — the layer no
// in-process test can fake. Run from the repository root:
//
//	go run ./scripts/resumesmoke
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"repro/memtest"
	"repro/scripts/internal/smokekit"
	"repro/service"
	"repro/service/client"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("resumesmoke: FAIL: %v", err)
	}
}

// smokePlan is sized so one device takes long enough that 300 of them
// on a single fleet worker give a wide, reliable kill window.
func smokePlan() memtest.Plan {
	return memtest.Plan{
		Name:    "resumesmoke",
		ClockNs: 10,
		Memories: []memtest.MemorySpec{
			{Name: "m0", Words: 1024, Width: 16, DefectRate: 0.01, Seed: 3},
			{Name: "m1", Words: 512, Width: 8, DefectRate: 0.02, DRFCount: 2, Seed: 4},
		},
	}
}

func run() error {
	tmp, err := os.MkdirTemp("", "resumesmoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "memtestd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/memtestd").CombinedOutput(); err != nil {
		return fmt.Errorf("building memtestd: %v\n%s", err, out)
	}
	dataDir := filepath.Join(tmp, "data")

	port, err := smokekit.FreePort()
	if err != nil {
		return err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	base := "http://" + addr
	start := func() (*exec.Cmd, error) {
		cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return cmd, smokekit.WaitHealthy(base)
	}

	req := service.JobRequest{
		Plan: smokePlan(), Devices: 300, Seed: 97, DRF: true,
		Delivery: "ordered",
		Workers:  1, // serialize the fleet: the kill lands mid-job, not after it
	}
	log.Printf("resumesmoke: computing in-process reference stream")
	want, err := smokekit.ReferenceLines(req)
	if err != nil {
		return err
	}

	log.Printf("resumesmoke: starting memtestd on %s", addr)
	gen1, err := start()
	if err != nil {
		return fmt.Errorf("generation 1: %w", err)
	}
	defer gen1.Process.Kill() //nolint:errcheck // reap on early exit; double-kill is harmless
	ctx := context.Background()
	c := client.New(base, nil)
	st, err := c.Submit(ctx, req)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	log.Printf("resumesmoke: job %s submitted (%d devices)", st.ID, req.Devices)

	// The self-healing follower: attached before the kill, it must ride
	// through the restart on backoff alone.
	type outcome struct {
		devices []int
		err     error
	}
	followed := make(chan outcome, 1)
	go func() {
		var o outcome
		b := client.Backoff{Initial: 50 * time.Millisecond, Max: 500 * time.Millisecond, Attempts: 60}
		for dr, err := range c.Results(ctx, st.ID, client.WithReconnect(b)) {
			if err != nil {
				o.err = err
				break
			}
			o.devices = append(o.devices, dr.Device)
		}
		followed <- o
	}()

	// Kill window: wait for a durable prefix, but fail loudly if the
	// job outruns us (the plan needs enlarging, not the assertions
	// weakening).
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, err := c.Job(ctx, st.ID)
		if err != nil {
			return fmt.Errorf("polling for kill window: %w", err)
		}
		if cur.State.Terminal() {
			return fmt.Errorf("job reached %q before the kill; plan too small for a kill window", cur.State)
		}
		if cur.Completed >= 5 {
			if cur.ElapsedSec <= 0 || cur.DevicesPerSec <= 0 {
				return fmt.Errorf("running job carries no live progress: %+v", cur)
			}
			log.Printf("resumesmoke: %d/%d devices spooled (%.0f devices/s) — sending SIGKILL",
				cur.Completed, req.Devices, cur.DevicesPerSec)
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job never spooled 5 devices: %+v", cur)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Mid-run scrape: the live daemon must already expose device
	// throughput series.
	if v, err := smokekit.ScrapeMetric(base, "devices_completed_total"); err != nil {
		return fmt.Errorf("mid-run metrics: %w", err)
	} else if v <= 0 {
		return fmt.Errorf("mid-run devices_completed_total = %g, want > 0", v)
	}
	log.Printf("resumesmoke: mid-run /metrics shows devices flowing")
	if err := gen1.Process.Kill(); err != nil {
		return fmt.Errorf("SIGKILL: %w", err)
	}
	gen1.Wait() //nolint:errcheck // killed: the error is the point

	log.Printf("resumesmoke: restarting memtestd on the same data dir")
	gen2, err := start()
	if err != nil {
		return fmt.Errorf("generation 2: %w", err)
	}
	defer func() {
		gen2.Process.Signal(syscall.SIGTERM) //nolint:errcheck
		gen2.Wait()                          //nolint:errcheck
	}()

	// The resumed job must complete every device.
	deadline = time.Now().Add(120 * time.Second)
	var done service.JobStatus
	for {
		done, err = c.Job(ctx, st.ID)
		if err != nil {
			return fmt.Errorf("polling resumed job: %w", err)
		}
		if done.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("resumed job never finished: %+v", done)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if done.State != service.StateDone || !done.Resumed || done.Completed != req.Devices {
		return fmt.Errorf("resumed job = %+v, want done+resumed with %d completed", done, req.Devices)
	}
	log.Printf("resumesmoke: job done, resumed from device %d", done.ResumedFrom)

	// Byte-identical across the crash: the acceptance criterion.
	got, err := smokekit.RawLines(base + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("stream has %d lines, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("line %d differs across the crash:\nserver   : %s\nreference: %s", i, got[i], want[i])
		}
	}
	log.Printf("resumesmoke: stream byte-identical to the in-process reference (%d lines)", len(got))

	// The follower rode through: every device exactly once, in order.
	select {
	case o := <-followed:
		if o.err != nil {
			return fmt.Errorf("reconnecting follower surfaced %v after %d devices", o.err, len(o.devices))
		}
		if len(o.devices) != req.Devices {
			return fmt.Errorf("reconnecting follower got %d devices, want %d", len(o.devices), req.Devices)
		}
		for i, d := range o.devices {
			if d != i {
				return fmt.Errorf("reconnecting follower saw device %d at position %d (gap or duplicate)", d, i)
			}
		}
	case <-time.After(30 * time.Second):
		return fmt.Errorf("reconnecting follower never finished")
	}
	log.Printf("resumesmoke: reconnecting follower rode through the restart gap-free")

	h, err := c.Health(ctx)
	if err != nil {
		return err
	}
	if h.JobsRecovered < 1 || h.JobsResumed < 1 || h.ResumeDevicesRerun < 1 {
		return fmt.Errorf("healthz counters = %+v, want the resume accounted for", h)
	}
	if h.UptimeSec <= 0 || h.Version == "" {
		return fmt.Errorf("healthz uptime/version missing: %+v", h)
	}
	// /metrics must agree with healthz on what the restart cost.
	resumed, err := smokekit.ScrapeMetric(base, "jobs_resumed_total")
	if err != nil {
		return err
	}
	if int(resumed) != h.JobsResumed {
		return fmt.Errorf("jobs_resumed_total = %g, healthz says %d", resumed, h.JobsResumed)
	}
	rerun, err := smokekit.ScrapeMetric(base, "resume_devices_rerun_total")
	if err != nil {
		return err
	}
	if rerun < 1 {
		return fmt.Errorf("resume_devices_rerun_total = %g, want >= 1", rerun)
	}
	log.Printf("resumesmoke: /metrics agrees with healthz (resumed %g, %g devices re-run)", resumed, rerun)

	// Mid-batch shard seam: a range job starting at device 37 — inside
	// the banked fleet engine's first 64-lane batch — must stream the
	// exact suffix of the full run, the property memtest-coord's shard
	// dispatch stands on no matter where its seams land.
	rangeReq := req
	rangeReq.FirstDevice, rangeReq.Devices = 37, 30
	rst, err := c.Submit(ctx, rangeReq)
	if err != nil {
		return fmt.Errorf("submitting mid-batch range job: %w", err)
	}
	deadline = time.Now().Add(120 * time.Second)
	for {
		cur, err := c.Job(ctx, rst.ID)
		if err != nil {
			return fmt.Errorf("polling range job: %w", err)
		}
		if cur.State == service.StateDone {
			break
		}
		if cur.State.Terminal() {
			return fmt.Errorf("range job ended %q: %s", cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("range job never finished: %+v", cur)
		}
		time.Sleep(25 * time.Millisecond)
	}
	rgot, err := smokekit.RawLines(base + "/v1/jobs/" + rst.ID + "/results")
	if err != nil {
		return err
	}
	rwant := want[rangeReq.FirstDevice : rangeReq.FirstDevice+rangeReq.Devices]
	if len(rgot) != len(rwant) {
		return fmt.Errorf("range stream has %d lines, want %d", len(rgot), len(rwant))
	}
	for i := range rwant {
		if rgot[i] != rwant[i] {
			return fmt.Errorf("range line %d differs from full-run suffix:\nserver   : %s\nreference: %s",
				i, rgot[i], rwant[i])
		}
	}
	log.Printf("resumesmoke: mid-batch range job [37,67) byte-identical to the full-run suffix")

	log.Printf("resumesmoke: OK (recovered %d, resumed %d, %d devices re-run)",
		h.JobsRecovered, h.JobsResumed, h.ResumeDevicesRerun)
	return nil
}
