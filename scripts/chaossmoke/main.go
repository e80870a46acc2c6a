// Command chaossmoke is the CI chaos smoke test: it builds the real
// memtestd and memtest-coord binaries, puts every worker process
// behind an in-process deterministic fault-injecting proxy
// (repro/internal/chaos) and drives a 300-device fleet job through the
// wreckage:
//
//   - worker 0's first results stream stalls silently after five lines
//     and never errors — the shard can only finish via a steal,
//   - worker 1's health probes fail for a scripted window — the prober
//     must quarantine it and readmit it after the window passes,
//   - worker 2's results streams are severed with torn NDJSON tails on
//     every connection — the offset-reconnect layer heals each cut.
//
// The run passes only if the merged stream is byte-identical to the
// same seeded session run in-process, the job status and /metrics
// record at least one steal, the membership API shows the quarantine
// and the rejoin, and /v1/healthz keeps answering from the prober's
// cache without ever blocking on a live worker probe. Run from the
// repository root:
//
//	go run ./scripts/chaossmoke
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/memtest"
	"repro/scripts/internal/smokekit"
	"repro/service"
	"repro/service/client"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("chaossmoke: FAIL: %v", err)
	}
}

// smokePlan is light per device: the run's length comes from the 300
// devices and the injected faults, not from slow memories.
func smokePlan() memtest.Plan {
	return memtest.Plan{
		Name:    "chaossmoke",
		ClockNs: 10,
		Memories: []memtest.MemorySpec{
			{Name: "m0", Words: 256, Width: 8, DefectRate: 0.01, Seed: 5},
			{Name: "m1", Words: 128, Width: 8, DefectRate: 0.02, DRFCount: 1, Seed: 6},
		},
	}
}

func run() error {
	tmp, err := os.MkdirTemp("", "chaossmoke-*")
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

	// Three real worker processes, each advertising one idle
	// device-worker so the coordinator plans exactly three shards.
	workerURLs := make([]string, 3)
	for i := range workerURLs {
		port, err := smokekit.FreePort()
		if err != nil {
			return err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		workerURLs[i] = "http://" + addr
		cmd := exec.Command(memtestd, "-addr", addr, "-workers", "1")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("starting worker %d: %w", i, err)
		}
		defer cmd.Process.Kill() //nolint:errcheck // reap on early exit
	}
	for i, u := range workerURLs {
		if err := smokekit.WaitHealthy(u); err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
	}

	// The fault scripts. Probes run every 100ms with backoff capped at
	// 200ms, so worker 1's probe window [8,40) holds it down for a few
	// seconds — long enough to cross -quarantine-after — then lets it
	// earn its -rejoin-after clean probes back.
	cfgs := []chaos.Config{
		{Seed: 11, StallAfterLines: 5},                  // straggler: first stream stalls silently
		{Seed: 13, FailProbesFrom: 8, FailProbesTo: 40}, // flapper: scripted probe outage
		{Seed: 17, DropEvery: 1, TornTail: true},        // flaky: every stream severed, torn tails
	}
	proxies := make([]*chaos.Proxy, len(cfgs))
	proxyURLs := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Target = workerURLs[i]
		p, err := chaos.New(cfg)
		if err != nil {
			return err
		}
		ps := httptest.NewServer(p)
		defer ps.Close()
		proxies[i], proxyURLs[i] = p, ps.URL
	}

	port, err := smokekit.FreePort()
	if err != nil {
		return err
	}
	coordAddr := fmt.Sprintf("127.0.0.1:%d", port)
	base := "http://" + coordAddr
	coordCmd := exec.Command(coordBin,
		"-addr", coordAddr,
		"-worker", strings.Join(proxyURLs, ","),
		"-min-shard", "50",
		"-backoff-initial", "25ms", "-backoff-max", "200ms",
		"-probe-interval", "100ms", "-probe-backoff-max", "200ms",
		"-quarantine-after", "2", "-rejoin-after", "2",
		"-steal-threshold", "2", "-steal-interval", "100ms",
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
		Plan: smokePlan(), Devices: 300, Seed: 101, DRF: true,
		Delivery: "ordered",
	}
	log.Printf("chaossmoke: computing in-process reference stream")
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
	if len(st.Shards) != 3 {
		return fmt.Errorf("planned %d shards, want 3: %+v", len(st.Shards), st.Shards)
	}
	log.Printf("chaossmoke: job %s submitted (%d devices, 3 shards behind chaos proxies)", st.ID, req.Devices)

	// The quarantine must show up in the membership API while the probe
	// window is open, with the gauge agreeing.
	flapper := proxyURLs[1]
	if err := waitWorkerState(ctx, c, flapper, "quarantined", 30*time.Second); err != nil {
		return err
	}
	if quar, err := smokekit.ScrapeMetric(base, "coord_worker_quarantined"); err != nil {
		return err
	} else if quar != 1 {
		return fmt.Errorf("coord_worker_quarantined = %g during the outage, want 1", quar)
	}
	log.Printf("chaossmoke: flapping worker quarantined (API + gauge agree)")

	// Healthz is served from the prober's cache: scrapes stay fast even
	// mid-outage, and live workers carry a fresh probe age.
	start := time.Now()
	for range 20 {
		h, err := c.Health(ctx)
		if err != nil {
			return err
		}
		if len(h.Workers) != 3 {
			return fmt.Errorf("healthz lists %d workers, want 3", len(h.Workers))
		}
		for _, w := range h.Workers {
			if w.Healthy && (w.ProbeAgeSec < 0 || w.ProbeAgeSec > 10) {
				return fmt.Errorf("live worker %s probe_age_sec = %g, want a fresh cached probe", w.URL, w.ProbeAgeSec)
			}
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		return fmt.Errorf("20 healthz scrapes took %v; scrapes must not block on live probes", elapsed)
	}
	log.Printf("chaossmoke: 20 healthz scrapes answered from the probe cache")

	// The stalled shard can only finish via a steal, so a completed job
	// is itself proof the steal machinery worked; give the whole circus
	// a generous deadline.
	deadline := time.Now().Add(180 * time.Second)
	var done service.JobStatus
	for {
		done, err = c.Job(ctx, st.ID)
		if err != nil {
			return fmt.Errorf("polling job: %w", err)
		}
		if done.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job never finished through the chaos: %+v", done)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if done.State != service.StateDone || done.Completed != req.Devices {
		return fmt.Errorf("job = %+v, want done with %d completed", done, req.Devices)
	}
	if done.Steals < 1 {
		return fmt.Errorf("job finished with %d steals, want >= 1", done.Steals)
	}
	stolen := 0
	for _, sh := range done.Shards {
		if sh.Merged != sh.Hi-sh.Lo {
			return fmt.Errorf("shard [%d,%d) merged %d of %d", sh.Lo, sh.Hi, sh.Merged, sh.Hi-sh.Lo)
		}
		if sh.Stolen {
			stolen++
		}
	}
	if stolen == 0 {
		return fmt.Errorf("no stolen shard in the final table: %+v", done.Shards)
	}
	log.Printf("chaossmoke: job done with %d steal(s), %d stolen shard(s) in the table", done.Steals, stolen)

	// Byte-identical through a stall, a steal, a probe outage and a
	// pile of severed streams: the acceptance criterion.
	got, err := smokekit.RawLines(base + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("stream has %d lines, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("line %d differs from the reference:\nserver   : %s\nreference: %s", i, got[i], want[i])
		}
	}
	log.Printf("chaossmoke: merged stream byte-identical to the in-process reference (%d lines)", len(got))

	// The probe window is long past: the quarantined worker must have
	// earned its way back in.
	if err := waitWorkerState(ctx, c, flapper, "active", 30*time.Second); err != nil {
		return err
	}
	log.Printf("chaossmoke: flapping worker rejoined the active set")

	// Metrics corroborate the run, and the proxies prove the faults
	// actually fired.
	if steals, err := smokekit.ScrapeMetric(base, "coord_shard_steals_total"); err != nil {
		return err
	} else if int(steals) < 1 {
		return fmt.Errorf("coord_shard_steals_total = %g, want >= 1", steals)
	}
	if merged, err := smokekit.ScrapeMetric(base, "coord_merged_lines_total"); err != nil {
		return err
	} else if int(merged) != req.Devices {
		return fmt.Errorf("coord_merged_lines_total = %g, want %d", merged, req.Devices)
	}
	if proxies[0].Stalls() != 1 {
		return fmt.Errorf("straggler proxy stalled %d streams, want 1", proxies[0].Stalls())
	}
	if proxies[1].FailedProbes() == 0 {
		return fmt.Errorf("flapper proxy failed no probes; the outage never fired")
	}
	if proxies[2].Drops() == 0 {
		return fmt.Errorf("flaky proxy dropped no streams; the cuts never fired")
	}
	log.Printf("chaossmoke: OK (stall=%d failed_probes=%d drops=%d)",
		proxies[0].Stalls(), proxies[1].FailedProbes(), proxies[2].Drops())
	return nil
}

// waitWorkerState polls GET /v1/workers until the worker at url
// reaches the wanted membership state.
func waitWorkerState(ctx context.Context, c *client.Client, url, want string, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		ws, err := c.Workers(ctx)
		if err != nil {
			return fmt.Errorf("listing workers: %w", err)
		}
		for _, w := range ws {
			if w.URL == url && w.State == want {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("worker %s never reached state %q; fleet: %+v", url, want, ws)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
