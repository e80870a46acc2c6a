package coord_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/service"
	"repro/service/client"
	"repro/service/coord"
	"repro/service/store"
)

// stealFleet builds the canonical straggler topology: worker A sits
// behind a chaos proxy that silently stalls its first results stream
// after five lines (the stream stays open — no error, no reconnect,
// just no more bytes), worker B is healthy. Both advertise one idle
// device-worker, so a 30-device job at MinShard 5 plans exactly two
// shards and the stalled shard can only finish via a steal.
func stealFleet(t *testing.T) (proxyURL, workerA, workerB string, proxy *chaos.Proxy) {
	t.Helper()
	wA := newWorker(t, service.Config{Jobs: 2, Queue: 8, FleetWorkers: 1})
	proxy, err := chaos.New(chaos.Config{Target: wA.URL, Seed: 1, StallAfterLines: 5})
	if err != nil {
		t.Fatal(err)
	}
	ps := httptest.NewServer(proxy)
	t.Cleanup(ps.Close)
	wB := newWorker(t, service.Config{Jobs: 2, Queue: 8, FleetWorkers: 1})
	return ps.URL, wA.URL, wB.URL, proxy
}

// hold parks a job on a worker's one device-worker, so the worker
// reports no idle capacity — and is no steal target — until the
// returned release cancels it.
func hold(t *testing.T, url string) (release func()) {
	t.Helper()
	c := client.New(url, nil)
	st, err := c.Submit(context.Background(), parkedRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, service.StateRunning)
	return func() {
		if _, err := c.Cancel(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
	}
}

func stealConfig(workers []string) coord.Config {
	return coord.Config{
		Workers:  workers,
		MinShard: 5, Backoff: fastBackoff(),
		ProbeInterval:  5 * time.Millisecond,
		StealThreshold: 2,
		StealInterval:  5 * time.Millisecond,
		Metrics:        obs.NewRegistry(),
	}
}

// TestCoordStealRescuesStalledStream is the work-stealing acceptance
// test: a shard whose stream stalls silently mid-merge is detected as
// the straggler, its unmerged remainder is re-split onto the idle
// worker as new ordered range jobs, and the merged stream stays
// byte-identical to the unsharded in-process run — the job cannot
// finish any other way, because the stalled stream never errors.
func TestCoordStealRescuesStalledStream(t *testing.T) {
	req := service.JobRequest{Plan: testPlan(), Devices: 30, DRF: true, Seed: 11}
	want := localLines(t, req)
	proxyURL, workerA, workerB, proxy := stealFleet(t)
	// Both workers start with no idle capacity: planning falls back to
	// the active worker count (two shards), the shard jobs run on the
	// one-worker floor, and nothing can be stolen — nor stolen back
	// onto A later — until B is released. B is released only once A's
	// stream has stalled, so the steal always rescues the stall rather
	// than racing it.
	hold(t, workerA)
	releaseB := hold(t, workerB)
	cc, _, cts := newCoord(t, stealConfig([]string{proxyURL, workerB}))

	st, err := cc.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("planned %d shards, want 2", len(st.Shards))
	}
	deadline := time.Now().Add(15 * time.Second)
	for proxy.Stalls() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker A's stream never stalled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	releaseB()
	compareLines(t, rawStream(t, cts, st.ID), want)
	fin := waitState(t, cc, st.ID, service.StateDone)

	if fin.Steals < 1 {
		t.Fatalf("job finished with %d steals, want >= 1", fin.Steals)
	}
	stolen := 0
	for _, sh := range fin.Shards {
		if sh.Merged != sh.Hi-sh.Lo {
			t.Fatalf("shard [%d,%d) merged %d", sh.Lo, sh.Hi, sh.Merged)
		}
		if sh.Stolen {
			stolen++
			if sh.Worker != workerB {
				t.Fatalf("stolen shard [%d,%d) on %s, want the idle worker %s", sh.Lo, sh.Hi, sh.Worker, workerB)
			}
		}
	}
	if stolen == 0 {
		t.Fatalf("no stolen shard in the final table: %+v", fin.Shards)
	}
	if proxy.Stalls() != 1 {
		t.Fatalf("proxy stalled %d streams, want 1", proxy.Stalls())
	}
	if got := scrapeMetric(t, cts, "coord_shard_steals_total"); got < 1 {
		t.Fatalf("coord_shard_steals_total = %g, want >= 1", got)
	}
}

// TestCoordStealCrashResumeRebasesExtendedTable: a coordinator crash
// after a steal recovers against the *extended* shard table — the
// manifest's stolen sub-shards rebase onto the truncated spool and the
// resumed merge re-attaches to the recorded worker jobs, byte-identical
// end to end.
func TestCoordStealCrashResumeRebasesExtendedTable(t *testing.T) {
	req := service.JobRequest{Plan: testPlan(), Devices: 30, DRF: true, Seed: 11}
	want := localLines(t, req)
	proxyURL, _, workerB, _ := stealFleet(t)
	workers := []string{proxyURL, workerB}
	dir := t.TempDir()

	// Run to completion (which forces a steal), then forge the crash
	// scene: manifest back to running, spool truncated mid-shard-0 with
	// a torn tail.
	st1, err := store.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stealConfig(workers)
	cfg.Store = st1
	c1, err := coord.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	var done service.JobStatus
	for {
		done, err = c1.Status(sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if done.State == service.StateDone {
			break
		}
		if done.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job ended %q: %s", done.State, done.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	c1.Close()
	if done.Steals < 1 || len(done.Shards) < 3 {
		t.Fatalf("pre-crash run: steals=%d shards=%d, want a stolen, extended table", done.Steals, len(done.Shards))
	}

	const keep = 3 // mid-victim-shard for the post-steal table
	spoolPath := filepath.Join(dir, sub.ID+".ndjson")
	data, err := os.ReadFile(spoolPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	var trunc []byte
	for i := 0; i < keep; i++ {
		trunc = append(trunc, lines[i]...)
	}
	trunc = append(trunc, []byte(`{"torn`)...)
	if err := os.WriteFile(spoolPath, trunc, 0o644); err != nil {
		t.Fatal(err)
	}
	maniPath := filepath.Join(dir, sub.ID+".json")
	mdata, err := os.ReadFile(maniPath)
	if err != nil {
		t.Fatal(err)
	}
	var mf map[string]any
	if err := json.Unmarshal(mdata, &mf); err != nil {
		t.Fatal(err)
	}
	mf["state"] = "running"
	delete(mf, "finished")
	if mdata, err = json.Marshal(mf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(maniPath, mdata, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := stealConfig(workers)
	cfg2.Store = st2
	// The resumed merge must re-attach to the recorded table. With
	// stealing still on, a slow run (race detector, one CPU) could
	// re-split a straggling shard again and legitimately grow the table.
	cfg2.StealThreshold = 0
	cc, _, cts := newCoord(t, cfg2)
	compareLines(t, rawStream(t, cts, sub.ID), want)
	fin := waitState(t, cc, sub.ID, service.StateDone)
	if !fin.Recovered || !fin.Resumed || fin.ResumedFrom != keep {
		t.Fatalf("recovered=%v resumed=%v from=%d, want true/true/%d", fin.Recovered, fin.Resumed, fin.ResumedFrom, keep)
	}
	if len(fin.Shards) != len(done.Shards) {
		t.Fatalf("resumed table has %d shards, crashed run had %d", len(fin.Shards), len(done.Shards))
	}
	stolen := false
	for i, sh := range fin.Shards {
		if sh.Merged != sh.Hi-sh.Lo {
			t.Fatalf("shard [%d,%d) merged %d after resume", sh.Lo, sh.Hi, sh.Merged)
		}
		if sh.Lo != done.Shards[i].Lo || sh.Hi != done.Shards[i].Hi {
			t.Fatalf("resumed shard %d = [%d,%d), crashed run had [%d,%d)",
				i, sh.Lo, sh.Hi, done.Shards[i].Lo, done.Shards[i].Hi)
		}
		stolen = stolen || sh.Stolen
	}
	if !stolen {
		t.Fatal("stolen flag lost across crash resume")
	}
}
