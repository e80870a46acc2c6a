// Command shardsmoke is the CI multi-node smoke test: it builds the
// real memtestd and memtest-coord binaries, starts a coordinator over
// two worker processes, submits a 300-device fleet job, SIGKILLs the
// worker serving the first shard while its results are still merging
// (a real crash — no graceful anything), and asserts that
//
//   - the coordinator re-dispatches the shard's missing remainder to
//     the surviving worker and the job completes every device,
//   - the merged result stream is byte-identical to the same seeded
//     session run in-process (the worker death left no gap, duplicate
//     or reordering),
//   - a client that was following the merged stream when the worker
//     died sees one seamless device sequence on a single connection —
//     the re-dispatch is invisible to readers,
//   - the shard table and /v1/healthz account for the failover,
//   - the coordinator's /metrics exposes merge progress mid-run and
//     counts the re-dispatch after the kill.
//
// It exercises the same contract as the service/coord package tests
// but with real processes, real sockets and a real SIGKILL — the
// layer no in-process test can fake. Run from the repository root:
//
//	go run ./scripts/shardsmoke
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
		log.Fatalf("shardsmoke: FAIL: %v", err)
	}
}

// smokePlan is sized so one device takes long enough that a 150-device
// shard on a single fleet worker gives a wide, reliable kill window.
func smokePlan() memtest.Plan {
	return memtest.Plan{
		Name:    "shardsmoke",
		ClockNs: 10,
		Memories: []memtest.MemorySpec{
			{Name: "m0", Words: 1024, Width: 16, DefectRate: 0.01, Seed: 3},
			{Name: "m1", Words: 512, Width: 8, DefectRate: 0.02, DRFCount: 2, Seed: 4},
		},
	}
}

func run() error {
	tmp, err := os.MkdirTemp("", "shardsmoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	memtestd := filepath.Join(tmp, "memtestd")
	if out, err := exec.Command("go", "build", "-o", memtestd, "./cmd/memtestd").CombinedOutput(); err != nil {
		return fmt.Errorf("building memtestd: %v\n%s", err, out)
	}
	coordBin := filepath.Join(tmp, "memtest-coord")
	if out, err := exec.Command("go", "build", "-o", coordBin, "./cmd/memtest-coord").CombinedOutput(); err != nil {
		return fmt.Errorf("building memtest-coord: %v\n%s", err, out)
	}

	// Two workers plus the coordinator, each a real process on its own
	// port. Workers run in-memory: a killed worker loses everything,
	// which is exactly the failure the re-dispatch must absorb.
	workers := make([]*exec.Cmd, 2)
	workerURLs := make([]string, 2)
	for i := range workers {
		port, err := smokekit.FreePort()
		if err != nil {
			return err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		workerURLs[i] = "http://" + addr
		// -workers 1 pins each node's advertised fleet pool so the
		// coordinator's live-capacity planning yields exactly two shards
		// regardless of the CI host's core count.
		cmd := exec.Command(memtestd, "-addr", addr, "-workers", "1")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("starting worker %d: %w", i, err)
		}
		workers[i] = cmd
		defer cmd.Process.Kill() //nolint:errcheck // reap on early exit; double-kill is harmless
	}
	for i, u := range workerURLs {
		if err := smokekit.WaitHealthy(u); err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
	}

	port, err := smokekit.FreePort()
	if err != nil {
		return err
	}
	coordAddr := fmt.Sprintf("127.0.0.1:%d", port)
	base := "http://" + coordAddr
	coordCmd := exec.Command(coordBin,
		"-addr", coordAddr,
		"-worker", workerURLs[0], "-worker", workerURLs[1],
		"-min-shard", "50",
		"-data-dir", filepath.Join(tmp, "coord-data"),
		"-backoff-initial", "50ms", "-backoff-max", "400ms", "-backoff-attempts", "3",
		// Fast probes so the cached fleet view notices the SIGKILL
		// quickly; stealing off — this smoke proves the pure redispatch
		// path heals the kill (chaossmoke covers stealing).
		"-probe-interval", "100ms", "-steal-threshold", "0",
	)
	coordCmd.Stdout, coordCmd.Stderr = os.Stderr, os.Stderr
	if err := coordCmd.Start(); err != nil {
		return fmt.Errorf("starting memtest-coord: %w", err)
	}
	defer func() {
		coordCmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck
		coordCmd.Wait()                          //nolint:errcheck
	}()
	if err := smokekit.WaitHealthy(base); err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}

	req := service.JobRequest{
		Plan: smokePlan(), Devices: 300, Seed: 97, DRF: true,
		Delivery: "ordered",
		Workers:  1, // serialize each shard: the kill lands mid-shard, not after it
	}
	log.Printf("shardsmoke: computing in-process reference stream")
	want, err := smokekit.ReferenceLines(req)
	if err != nil {
		return err
	}

	ctx := context.Background()
	c := client.New(base, nil)
	st, err := c.Submit(ctx, req)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if len(st.Shards) != 2 {
		return fmt.Errorf("planned %d shards, want 2: %+v", len(st.Shards), st.Shards)
	}
	log.Printf("shardsmoke: job %s submitted (%d devices, shards %+v)", st.ID, req.Devices, st.Shards)

	// A plain single-connection follower attached before the kill: the
	// coordinator stays up, so the worker failover must be invisible —
	// no reconnect, no gap, no duplicate.
	type outcome struct {
		lines []string
		err   error
	}
	followed := make(chan outcome, 1)
	go func() {
		lines, err := smokekit.RawLines(base + "/v1/jobs/" + st.ID + "/results")
		followed <- outcome{lines, err}
	}()

	// Kill window: wait for a merged prefix, then kill the worker
	// serving the first shard while that shard is still incomplete.
	var victim string
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, err := c.Job(ctx, st.ID)
		if err != nil {
			return fmt.Errorf("polling for kill window: %w", err)
		}
		if cur.State.Terminal() {
			return fmt.Errorf("job reached %q before the kill; plan too small for a kill window", cur.State)
		}
		sh0 := service.ShardStatus{}
		if len(cur.Shards) > 0 {
			sh0 = cur.Shards[0]
		}
		if cur.Completed >= 5 {
			if sh0.Merged >= sh0.Hi-sh0.Lo {
				return fmt.Errorf("first shard finished before the kill; plan too small for a kill window")
			}
			// Mid-run observability: the merge counter moves while the
			// job runs, and the status carries computed progress.
			if merged, err := smokekit.ScrapeMetric(base, "coord_merged_lines_total"); err != nil {
				return fmt.Errorf("mid-run metrics scrape: %w", err)
			} else if merged <= 0 {
				return fmt.Errorf("coord_merged_lines_total = %g mid-run, want > 0", merged)
			}
			if cur.ElapsedSec <= 0 || cur.DevicesPerSec <= 0 {
				return fmt.Errorf("running job carries no live progress: %+v", cur)
			}
			victim = sh0.Worker
			log.Printf("shardsmoke: %d/%d devices merged — SIGKILLing %s (shard [%d,%d))",
				cur.Completed, req.Devices, victim, sh0.Lo, sh0.Hi)
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job never merged 5 devices: %+v", cur)
		}
		time.Sleep(10 * time.Millisecond)
	}
	killed := false
	for i, u := range workerURLs {
		if u == victim {
			if err := workers[i].Process.Kill(); err != nil {
				return fmt.Errorf("SIGKILL worker %d: %w", i, err)
			}
			workers[i].Wait() //nolint:errcheck // killed: the error is the point
			killed = true
		}
	}
	if !killed {
		return fmt.Errorf("shard 0 worker %q not among %v", victim, workerURLs)
	}

	// The job must still complete every device, on the survivor.
	deadline = time.Now().Add(120 * time.Second)
	var done service.JobStatus
	for {
		done, err = c.Job(ctx, st.ID)
		if err != nil {
			return fmt.Errorf("polling after the kill: %w", err)
		}
		if done.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job never finished after the kill: %+v", done)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if done.State != service.StateDone || done.Completed != req.Devices {
		return fmt.Errorf("job = %+v, want done with %d completed", done, req.Devices)
	}
	moved := 0
	for _, sh := range done.Shards {
		if sh.Worker == victim {
			return fmt.Errorf("shard [%d,%d) still assigned to the killed worker", sh.Lo, sh.Hi)
		}
		moved += sh.Redispatches
	}
	if moved == 0 {
		return fmt.Errorf("no shard was re-dispatched off the killed worker: %+v", done.Shards)
	}
	log.Printf("shardsmoke: job done after %d re-dispatch(es)", moved)

	// The failover is visible in the metrics: the re-dispatch counter
	// matches the shard table and every merged device was counted.
	if redisp, err := smokekit.ScrapeMetric(base, "coord_shard_redispatch_total"); err != nil {
		return err
	} else if int(redisp) < moved {
		return fmt.Errorf("coord_shard_redispatch_total = %g, want >= %d", redisp, moved)
	}
	if merged, err := smokekit.ScrapeMetric(base, "coord_merged_lines_total"); err != nil {
		return err
	} else if int(merged) != req.Devices {
		return fmt.Errorf("coord_merged_lines_total = %g, want %d", merged, req.Devices)
	}
	log.Printf("shardsmoke: /metrics counted the re-dispatch and all %d merged devices", req.Devices)

	// Byte-identical across the worker death: the acceptance criterion.
	got, err := smokekit.RawLines(base + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		return err
	}
	if err := compare(got, want); err != nil {
		return err
	}
	log.Printf("shardsmoke: merged stream byte-identical to the in-process reference (%d lines)", len(got))

	// The attached follower saw the same stream on one connection.
	select {
	case o := <-followed:
		if o.err != nil {
			return fmt.Errorf("attached follower surfaced %v after %d lines", o.err, len(o.lines))
		}
		if err := compare(o.lines, want); err != nil {
			return fmt.Errorf("attached follower: %w", err)
		}
	case <-time.After(30 * time.Second):
		return fmt.Errorf("attached follower never finished")
	}
	log.Printf("shardsmoke: attached follower rode through the failover gap-free")

	// Healthz serves the prober's cache, so give the background probe a
	// few cycles to notice the corpse, then check both the fleet
	// accounting and the probe-age freshness field.
	deadline = time.Now().Add(15 * time.Second)
	for {
		h, err := c.Health(ctx)
		if err != nil {
			return err
		}
		dead, alive := 0, 0
		for _, w := range h.Workers {
			if w.Healthy {
				alive++
				if w.ProbeAgeSec < 0 || w.ProbeAgeSec > 10 {
					return fmt.Errorf("live worker %s probe_age_sec = %g, want a fresh cached probe", w.URL, w.ProbeAgeSec)
				}
			} else {
				dead++
				if w.State != "down" && w.State != "quarantined" {
					return fmt.Errorf("dead worker %s cached as state %q", w.URL, w.State)
				}
			}
		}
		if dead == 1 && alive == 1 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("healthz workers = %+v, want one dead and one alive", h.Workers)
		}
		time.Sleep(50 * time.Millisecond)
	}
	log.Printf("shardsmoke: OK (healthz caches the dead worker with a fresh probe age)")
	return nil
}

func compare(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("stream has %d lines, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("line %d differs across the failover:\nserver   : %s\nreference: %s", i, got[i], want[i])
		}
	}
	return nil
}
