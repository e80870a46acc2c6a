package service_test

// Crash-resume tests: interrupted jobs re-enqueued on restart, the
// missing device suffix re-run via RunFleetRange, the final stream
// byte-identical to a crash-free run. Process death is simulated two
// ways — injected store faults (faultstore) and closing a disk store
// out from under a zombie manager — so both the fault scripting and
// the real file-level recovery paths stay covered.

import (
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/service"
	"repro/service/client"
	"repro/service/store"
	"repro/service/store/faultstore"
)

// faultServer spins a manager whose store is a faultstore over inner,
// plus an HTTP server. The manager is deliberately NOT closed before
// the test body ends (it plays the crashed process); cleanup reaps it.
func faultServer(t *testing.T, inner store.Store, cfg service.Config) (*client.Client, *faultstore.Store, *httptest.Server) {
	t.Helper()
	fs := faultstore.Wrap(inner)
	cfg.Store = fs
	m, err := service.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewServer(m))
	t.Cleanup(func() { ts.Close(); m.Close() })
	return client.New(ts.URL, ts.Client()), fs, ts
}

// memServer spins a manager directly over inner (no fault wrapper) —
// the "restarted process" that recovers what a crashed one left.
func memServer(t *testing.T, inner store.Store, cfg service.Config) (*client.Client, *service.Manager, *httptest.Server) {
	t.Helper()
	cfg.Store = inner
	m, err := service.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewServer(m))
	return client.New(ts.URL, ts.Client()), m, ts
}

// TestCrashResumeByteIdentical is the acceptance-criterion test: a
// store fault kills a job after exactly 2 of 5 ordered device results
// are durable (stale manifest, truncated spool — what kill-9 leaves),
// a fresh manager over the same store resumes the missing [2,5)
// suffix, and the final stream is byte-identical to a crash-free run.
func TestCrashResumeByteIdentical(t *testing.T) {
	inner := store.NewMem()
	ctx := context.Background()
	req := service.JobRequest{Plan: testPlan(), Devices: 5, Seed: 21, Delivery: "ordered", DRF: true}

	// Generation 1: the process that dies. CrashAfterAppends(2) lets
	// two results reach the store, then fails every later append, flush
	// and manifest write — the job fails in this process, and the store
	// keeps a running manifest over a 2-line spool.
	c1, fs1, _ := faultServer(t, inner, service.Config{Jobs: 1, Queue: 4})
	fs1.CrashAfterAppends(2)
	st, err := c1.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	crashed := waitState(t, c1, st.ID, service.StateFailed)
	if !strings.Contains(crashed.Error, "injected") {
		t.Fatalf("crashed job error = %q, want the injected store fault", crashed.Error)
	}

	// Generation 2: a fresh manager over the same (now healthy) store.
	c2, m2, ts2 := memServer(t, inner, service.Config{Jobs: 1, Queue: 4})
	defer func() { ts2.Close(); m2.Close() }()
	resumed := waitState(t, c2, st.ID, service.StateDone)
	if !resumed.Recovered || !resumed.Resumed || resumed.ResumedFrom != 2 {
		t.Fatalf("resumed job = %+v, want recovered+resumed from device 2", resumed)
	}
	if resumed.Completed != 5 {
		t.Fatalf("resumed job completed %d devices, want 5", resumed.Completed)
	}

	got := rawStream(t, ts2, st.ID)
	want := localLines(t, req)
	if len(got) != len(want) {
		t.Fatalf("resumed stream has %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resumed line %d differs:\nresumed: %s\nlocal  : %s", i, got[i], want[i])
		}
	}

	// The operator-facing cost of the restart: one job recovered, one
	// resumed, three devices re-run.
	h, err := c2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.JobsRecovered != 1 || h.JobsResumed != 1 || h.ResumeDevicesRerun != 3 {
		t.Fatalf("health recovery counters = recovered %d, resumed %d, rerun %d; want 1, 1, 3",
			h.JobsRecovered, h.JobsResumed, h.ResumeDevicesRerun)
	}
}

// TestCrashResumeMidBatchByteIdentical re-runs the acceptance test at
// banked-fleet scale: 150 devices put the crash point (37 durable
// results) inside the fleet engine's first 64-lane batch, so the
// resumed RunFleetRange(37, 150) restarts mid-batch — its batches are
// offset from the original run's — and the stitched stream must still
// be byte-identical to a crash-free run.
func TestCrashResumeMidBatchByteIdentical(t *testing.T) {
	inner := store.NewMem()
	ctx := context.Background()
	req := service.JobRequest{
		Plan: testPlan(), Devices: 150, Seed: 33, Delivery: "ordered", DRF: true,
		Workers: 1,
	}

	c1, fs1, _ := faultServer(t, inner, service.Config{Jobs: 1, Queue: 4})
	fs1.CrashAfterAppends(37)
	st, err := c1.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	crashed := waitState(t, c1, st.ID, service.StateFailed)
	if !strings.Contains(crashed.Error, "injected") {
		t.Fatalf("crashed job error = %q, want the injected store fault", crashed.Error)
	}

	c2, m2, ts2 := memServer(t, inner, service.Config{Jobs: 1, Queue: 4})
	defer func() { ts2.Close(); m2.Close() }()
	resumed := waitState(t, c2, st.ID, service.StateDone)
	if !resumed.Resumed || resumed.ResumedFrom != 37 {
		t.Fatalf("resumed job = %+v, want resumed from device 37 (mid-batch)", resumed)
	}
	if resumed.Completed != req.Devices {
		t.Fatalf("resumed job completed %d devices, want %d", resumed.Completed, req.Devices)
	}

	got := rawStream(t, ts2, st.ID)
	want := localLines(t, req)
	if len(got) != len(want) {
		t.Fatalf("resumed stream has %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resumed line %d differs:\nresumed: %s\nlocal  : %s", i, got[i], want[i])
		}
	}

	h, err := c2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.ResumeDevicesRerun != int64(req.Devices-37) {
		t.Fatalf("rerun counter = %d, want %d", h.ResumeDevicesRerun, req.Devices-37)
	}
}

// TestResumeTornTailOnDisk drives the real file-level path: a zombie
// manager loses its disk store mid-job, the spool gains a torn partial
// line (the unflushed tail a crash shears), and the restarted manager
// truncates the tear, resumes from the last whole line, and streams a
// byte-identical result set.
func TestResumeTornTailOnDisk(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	stA, err := store.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := service.NewManager(service.Config{Jobs: 1, Queue: 4, FleetWorkers: 1, Store: stA})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(service.NewServer(m1))
	t.Cleanup(func() { ts1.Close(); m1.Close() })
	c1 := client.New(ts1.URL, ts1.Client())

	e := newBlockEngine(t, "block-resume-torn")
	req := service.JobRequest{Plan: testPlan(), Devices: 5, Scheme: e.name, Delivery: "ordered", Seed: 9}
	st, err := c1.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	e.awaitStart(t)
	e.release <- struct{}{}
	e.release <- struct{}{}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := c1.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Completed == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never spooled 2 devices: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Crash: the store's handles and flock vanish; m1 survives as a
	// zombie parked inside the engine. Then shear the spool: a partial
	// third line with no terminating newline, exactly what an append
	// cut down by SIGKILL leaves behind.
	if err := stA.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, st.ID+".ndjson"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"device":2,"resul`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Restart: the torn tail is truncated away, the job re-enqueues as
	// resuming and parks in the engine on device 2.
	c2, m2, ts2 := diskServer(t, dir, service.Config{Jobs: 1, Queue: 4})
	defer func() { ts2.Close(); m2.Close() }()
	running := waitState(t, c2, st.ID, service.StateRunning)
	if !running.Resumed || running.ResumedFrom != 2 {
		t.Fatalf("restarted job = %+v, want resumed from device 2 (torn tail truncated)", running)
	}

	// Release every parked engine call (the zombie's too — its writes
	// only hit the closed store) and let the resume finish.
	close(e.release)
	done := waitState(t, c2, st.ID, service.StateDone)
	if done.Completed != 5 {
		t.Fatalf("resumed job completed %d devices, want 5", done.Completed)
	}
	got := rawStream(t, ts2, st.ID)
	want := localLines(t, req)
	if len(got) != len(want) {
		t.Fatalf("resumed stream has %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resumed line %d differs:\nresumed: %s\nlocal  : %s", i, got[i], want[i])
		}
	}
}

// TestResumeAtFinalManifestWrite covers the narrowest crash window:
// every device result was durable but the process died before the
// terminal manifest landed. The resume has an empty suffix — no device
// re-runs — and simply completes the job.
func TestResumeAtFinalManifestWrite(t *testing.T) {
	inner := store.NewMem()
	ctx := context.Background()
	req := service.JobRequest{Plan: testPlan(), Devices: 4, Seed: 33, Delivery: "ordered"}

	c1, fs1, _ := faultServer(t, inner, service.Config{Jobs: 1, Queue: 4})
	fs1.CrashAfterAppends(4) // all results land; the done manifest does not
	st, err := c1.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// This generation believes the job finished — its in-memory state
	// says done even though the terminal manifest write was lost.
	waitState(t, c1, st.ID, service.StateDone)

	c2, m2, ts2 := memServer(t, inner, service.Config{Jobs: 1, Queue: 4})
	defer func() { ts2.Close(); m2.Close() }()
	done := waitState(t, c2, st.ID, service.StateDone)
	if !done.Resumed || done.ResumedFrom != 4 || done.Completed != 4 {
		t.Fatalf("empty-suffix resume = %+v, want resumed from 4 with 4 completed", done)
	}
	got := rawStream(t, ts2, st.ID)
	want := localLines(t, req)
	if len(got) != len(want) {
		t.Fatalf("stream has %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d differs after empty-suffix resume", i)
		}
	}
	h, err := c2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.JobsResumed != 1 || h.ResumeDevicesRerun != 0 {
		t.Fatalf("counters = resumed %d, rerun %d; want 1 resumed, 0 devices re-run", h.JobsResumed, h.ResumeDevicesRerun)
	}
}

// TestResumeOfResume: the process dies again mid-resume. Each
// generation extends the durable prefix; the third completes the job,
// and the stitched three-generation stream is still byte-identical.
func TestResumeOfResume(t *testing.T) {
	inner := store.NewMem()
	ctx := context.Background()
	req := service.JobRequest{Plan: testPlan(), Devices: 6, Seed: 55, Delivery: "ordered", DRF: true}

	// Generation 1 dies after 2 durable results.
	c1, fs1, _ := faultServer(t, inner, service.Config{Jobs: 1, Queue: 4})
	fs1.CrashAfterAppends(2)
	st, err := c1.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c1, st.ID, service.StateFailed)

	// Generation 2 resumes from 2 and dies after 2 more (4 durable).
	// The crash is armed before the manager exists: recovery re-enqueues
	// the job at once, so arming it afterwards would race the resume.
	fs2 := faultstore.Wrap(inner)
	fs2.CrashAfterAppends(2)
	m2, err := service.NewManager(service.Config{Jobs: 1, Queue: 4, Store: fs2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(service.NewServer(m2))
	t.Cleanup(func() { ts2.Close(); m2.Close() })
	c2 := client.New(ts2.URL, ts2.Client())
	failed := waitState(t, c2, st.ID, service.StateFailed)
	if !failed.Resumed || failed.ResumedFrom != 2 {
		t.Fatalf("generation-2 job = %+v, want a resume from 2 that crashed again", failed)
	}

	// Generation 3 resumes from 4 and finishes.
	c3, m3, ts3 := memServer(t, inner, service.Config{Jobs: 1, Queue: 4})
	defer func() { ts3.Close(); m3.Close() }()
	done := waitState(t, c3, st.ID, service.StateDone)
	if !done.Resumed || done.ResumedFrom != 4 || done.Completed != 6 {
		t.Fatalf("generation-3 job = %+v, want resumed from 4, 6 completed", done)
	}
	got := rawStream(t, ts3, st.ID)
	want := localLines(t, req)
	if len(got) != len(want) {
		t.Fatalf("three-generation stream has %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d differs across three generations:\ngot : %s\nwant: %s", i, got[i], want[i])
		}
	}
	h, err := c3.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.JobsResumed != 1 || h.ResumeDevicesRerun != 2 {
		t.Fatalf("generation-3 counters = resumed %d, rerun %d; want 1, 2", h.JobsResumed, h.ResumeDevicesRerun)
	}
}

// TestRetentionNeverEvictsResuming: a resuming job is the oldest in
// the store while retention pressure mounts — terminal jobs around it
// are evicted, the mid-resume spool never is.
func TestRetentionNeverEvictsResuming(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	stA, err := store.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := service.NewManager(service.Config{Jobs: 2, Queue: 8, FleetWorkers: 1, Store: stA})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(service.NewServer(m1))
	t.Cleanup(func() { ts1.Close(); m1.Close() })
	c1 := client.New(ts1.URL, ts1.Client())

	e := newBlockEngine(t, "block-resume-retain")
	req := service.JobRequest{Plan: testPlan(), Devices: 5, Scheme: e.name, Delivery: "ordered", Seed: 4}
	st, err := c1.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	e.awaitStart(t)
	e.release <- struct{}{}
	e.release <- struct{}{}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := c1.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Completed == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never spooled 2 devices: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := stA.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart under a harsh retention cap. The resumed job parks in the
	// engine (oldest job in the store, non-terminal); quick jobs churn
	// through and trip eviction around it.
	c2, m2, ts2 := diskServer(t, dir, service.Config{Jobs: 2, Queue: 8, RetainJobs: 1})
	defer func() { ts2.Close(); m2.Close() }()
	waitState(t, c2, st.ID, service.StateRunning)
	var churn []string
	for i := range 3 {
		quick, err := c2.Submit(ctx, service.JobRequest{Plan: testPlan(), Devices: 2, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, c2, quick.ID, service.StateDone)
		churn = append(churn, quick.ID)
	}
	// The cap held: at most one terminal churn job survives...
	if _, err := c2.Job(ctx, churn[0]); err == nil {
		t.Fatalf("churn job %s survived a retain-jobs=1 cap", churn[0])
	}
	// ...while the older, still-resuming job is untouched.
	mid, err := c2.Job(ctx, st.ID)
	if err != nil {
		t.Fatalf("resuming job evicted under retention pressure: %v", err)
	}
	if mid.State != service.StateRunning || mid.Completed != 2 {
		t.Fatalf("resuming job mid-churn = %+v, want running with its 2-line prefix", mid)
	}

	// Unpark the engine and let the resume finish. Once terminal, the
	// job is fair game for the cap again (it is the oldest in the
	// store, so under retain-jobs=1 it may be evicted right after
	// completing) — what retention must never do is strike mid-resume,
	// which the assertions above pinned.
	close(e.release)
	deadline = time.Now().Add(10 * time.Second)
	for {
		done, err := c2.Job(ctx, st.ID)
		if err != nil {
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
				t.Fatal(err)
			}
			break // completed, then evicted as a terminal job — correct
		}
		if done.State.Terminal() {
			if done.State != service.StateDone || done.Completed != 5 {
				t.Fatalf("post-churn job = %+v, want done with 5 completed", done)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed job never finished: %+v", done)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReconnectRidesThroughServerRestart is the self-healing-client
// e2e: a reconnecting Results stream is mid-follow when the server
// crashes; a new server resumes the job on the same address, and the
// consumer sees one seamless, gap-free device stream — never noticing
// the restart except as latency.
func TestReconnectRidesThroughServerRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// A plain listener (not httptest's) so the address can be rebound
	// by the restarted server.
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l1.Addr().String()

	stA, err := store.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := service.NewManager(service.Config{Jobs: 1, Queue: 4, FleetWorkers: 1, Store: stA})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewUnstartedServer(service.NewServer(m1))
	ts1.Listener = l1
	ts1.Start()
	t.Cleanup(m1.Close)
	c := client.New("http://"+addr, nil)

	e := newBlockEngine(t, "block-reconnect")
	req := service.JobRequest{Plan: testPlan(), Devices: 5, Scheme: e.name, Delivery: "ordered", Seed: 13}
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// The consumer: a reconnecting stream collecting devices, patient
	// enough (30 × ≤50ms) to outlast the restart below.
	type outcome struct {
		devices []int
		err     error
	}
	streamed := make(chan outcome, 1)
	var delivered atomic.Int32
	go func() {
		var o outcome
		b := client.Backoff{Initial: 5 * time.Millisecond, Max: 50 * time.Millisecond, Attempts: 30}
		for dr, err := range c.Results(ctx, st.ID, client.WithReconnect(b)) {
			if err != nil {
				o.err = err
				break
			}
			o.devices = append(o.devices, dr.Device)
			delivered.Add(1)
		}
		streamed <- o
	}()

	// Let 2 devices through, wait until the consumer has them in hand.
	e.awaitStart(t)
	e.release <- struct{}{}
	e.release <- struct{}{}
	deadline := time.Now().Add(10 * time.Second)
	for delivered.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("consumer never received the first 2 devices")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Crash: store handles vanish, every client connection is cut, the
	// listener goes away. The consumer's stream breaks mid-follow.
	if err := stA.Close(); err != nil {
		t.Fatal(err)
	}
	ts1.CloseClientConnections()
	ts1.Close()

	// Restart on the same address; the recovered job resumes from 2.
	var l2 net.Listener
	for range 100 {
		if l2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	stB, err := store.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := service.NewManager(service.Config{Jobs: 1, Queue: 4, Store: stB})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewUnstartedServer(service.NewServer(m2))
	ts2.Listener = l2
	ts2.Start()
	defer func() { ts2.Close(); m2.Close() }()

	// Unpark every engine call (the zombie m1's too — its writes only
	// hit the closed store) and let the resume run to completion.
	close(e.release)
	select {
	case o := <-streamed:
		if o.err != nil {
			t.Fatalf("healed stream surfaced %v (devices so far %v)", o.err, o.devices)
		}
		if len(o.devices) != 5 {
			t.Fatalf("healed stream devices = %v, want all 5", o.devices)
		}
		for i, d := range o.devices {
			if d != i {
				t.Fatalf("healed stream devices = %v, want gap-free ascending order", o.devices)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("consumer never finished riding through the restart")
	}
	done, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !done.Resumed || done.ResumedFrom != 2 || done.State != service.StateDone {
		t.Fatalf("post-restart job = %+v, want done, resumed from 2", done)
	}
}

// TestUnorderedJobNeverResumes: resume assumes the spooled prefix is
// devices [0, K), which only ordered delivery guarantees — an
// unordered job's spool holds whichever K devices finished first. An
// interrupted unordered job must therefore recover as failed with its
// partials retained, never re-enqueue as resuming.
func TestUnorderedJobNeverResumes(t *testing.T) {
	inner := store.NewMem()
	ctx := context.Background()
	// Default delivery — the service's unordered mode.
	req := service.JobRequest{Plan: testPlan(), Devices: 5, Seed: 77}

	c1, fs1, _ := faultServer(t, inner, service.Config{Jobs: 1, Queue: 4})
	fs1.CrashAfterAppends(2)
	st, err := c1.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c1, st.ID, service.StateFailed)

	c2, m2, _ := memServer(t, inner, service.Config{Jobs: 1, Queue: 4})
	defer m2.Close()
	failed := waitState(t, c2, st.ID, service.StateFailed)
	if failed.Resumed || !failed.Recovered {
		t.Fatalf("unordered interrupted job = %+v, want recovered but NOT resumed", failed)
	}
	if failed.Completed != 2 || !strings.Contains(failed.Error, "2/5 device results retained") {
		t.Fatalf("unordered recovery = %+v, want failed-with-partials (2/5 retained)", failed)
	}
	h, err := c2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.JobsRecovered != 1 || h.JobsResumed != 0 || h.ResumeDevicesRerun != 0 {
		t.Fatalf("counters = recovered %d, resumed %d, rerun %d; want 1, 0, 0",
			h.JobsRecovered, h.JobsResumed, h.ResumeDevicesRerun)
	}
}

// TestSpoolIndexFaultDegradesToFailed: when the recovering manager
// cannot count the spooled lines (a transient index/IO failure), the
// job must degrade to failed — resuming with an assumed count of 0
// would re-run every device and append a duplicate stream after the
// intact prefix.
func TestSpoolIndexFaultDegradesToFailed(t *testing.T) {
	inner := store.NewMem()
	ctx := context.Background()
	// Ordered and otherwise perfectly resumable: only the Lines fault
	// below stands between this job and a resume.
	req := service.JobRequest{Plan: testPlan(), Devices: 5, Seed: 88, Delivery: "ordered"}

	c1, fs1, _ := faultServer(t, inner, service.Config{Jobs: 1, Queue: 4})
	fs1.CrashAfterAppends(2)
	st, err := c1.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c1, st.ID, service.StateFailed)

	// Generation 2's store fails the recovery-time Lines call; the
	// fault must be armed before the manager (and its recover) exists.
	fs2 := faultstore.Wrap(inner)
	fs2.FailLines(1, errors.New("index io"))
	m2, err := service.NewManager(service.Config{Jobs: 1, Queue: 4, Store: fs2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(service.NewServer(m2))
	defer func() { ts2.Close(); m2.Close() }()
	c2 := client.New(ts2.URL, ts2.Client())

	failed := waitState(t, c2, st.ID, service.StateFailed)
	if failed.Resumed {
		t.Fatalf("job with unreadable spool = %+v, want failed, not resumed", failed)
	}
	if !strings.Contains(failed.Error, "result spool unreadable") || !strings.Contains(failed.Error, "index io") {
		t.Fatalf("error = %q, want the spool-unreadable cause", failed.Error)
	}
	h, err := c2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.JobsRecovered != 1 || h.JobsResumed != 0 {
		t.Fatalf("counters = recovered %d, resumed %d; want 1, 0", h.JobsRecovered, h.JobsResumed)
	}
}

// TestJobTimeout: a positive timeout_sec caps the run; expiry fails
// the job with the distinct deadline error while the spooled prefix
// stays streamable.
func TestJobTimeout(t *testing.T) {
	c, _, ts := newTestServer(t, service.Config{Jobs: 1, Queue: 4, FleetWorkers: 1})
	e := newBlockEngine(t, "block-timeout")
	ctx := context.Background()

	st, err := c.Submit(ctx, service.JobRequest{
		Plan: testPlan(), Devices: 3, Scheme: e.name, Delivery: "ordered", TimeoutSec: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.awaitStart(t)
	e.release <- struct{}{} // device 0 completes; device 1 parks until the deadline
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := c.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Completed == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never spooled its first device: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}

	failed := waitState(t, c, st.ID, service.StateFailed)
	if !strings.Contains(failed.Error, "job deadline exceeded (timeout_sec=1.5)") {
		t.Fatalf("timeout error = %q, want the distinct deadline error", failed.Error)
	}
	if failed.Completed != 1 {
		t.Fatalf("timed-out job retained %d results, want 1", failed.Completed)
	}
	lines := rawStream(t, ts, st.ID)
	if len(lines) != 2 || !strings.Contains(lines[0], `"device"`) || !strings.Contains(lines[1], "deadline exceeded") {
		t.Fatalf("timed-out stream = %v, want 1 result + 1 deadline-error line", lines)
	}
}

// TestJobTimeoutRejectsNegative: timeout_sec < 0 is a client mistake.
func TestJobTimeoutRejectsNegative(t *testing.T) {
	c, _, _ := newTestServer(t, service.Config{Jobs: 1, Queue: 4})
	_, err := c.Submit(context.Background(), service.JobRequest{Plan: testPlan(), Devices: 1, TimeoutSec: -1})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Fatalf("negative timeout err = %v, want HTTP 400", err)
	}
	if !strings.Contains(apiErr.Error(), "timeout_sec") {
		t.Fatalf("negative timeout err = %v, want a timeout_sec message", apiErr)
	}
}

// TestInjectedAppendFaultFailsJobExplicitly: a single failing append
// (disk full, not a crash) fails the job with an explicit storage
// error; the preceding result still streams, followed by the error
// line — never a silent truncation.
func TestInjectedAppendFaultFailsJobExplicitly(t *testing.T) {
	inner := store.NewMem()
	c, fs, ts := faultServer(t, inner, service.Config{Jobs: 1, Queue: 4})
	fs.FailAppend(2, errors.New("disk full"))
	st, err := c.Submit(context.Background(), service.JobRequest{
		Plan: testPlan(), Devices: 4, Seed: 2, Delivery: "ordered",
	})
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, c, st.ID, service.StateFailed)
	if !strings.Contains(failed.Error, "job storage") || !strings.Contains(failed.Error, "disk full") {
		t.Fatalf("append-fault error = %q, want explicit storage + injected cause", failed.Error)
	}
	lines := rawStream(t, ts, st.ID)
	if len(lines) != 2 || !strings.Contains(lines[0], `"device"`) || !strings.Contains(lines[1], "disk full") {
		t.Fatalf("append-fault stream = %v, want 1 result + 1 error line", lines)
	}
}

// TestInjectedReadFaultTerminatesStreamExplicitly: a mid-replay read
// fault surfaces as an explicit terminal error line on the NDJSON
// stream after the lines that did emit.
func TestInjectedReadFaultTerminatesStreamExplicitly(t *testing.T) {
	inner := store.NewMem()
	c, fs, ts := faultServer(t, inner, service.Config{Jobs: 1, Queue: 4})
	ctx := context.Background()
	st, err := c.Submit(ctx, service.JobRequest{Plan: testPlan(), Devices: 3, Seed: 6, Delivery: "ordered"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, service.StateDone)

	fs.FailRead(1, 1, nil)
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	lines := readLines(t, resp)
	if len(lines) != 2 || !strings.Contains(lines[0], `"device"`) || !strings.Contains(lines[1], "job storage") {
		t.Fatalf("read-fault stream = %v, want 1 emitted result + 1 storage-error line", lines)
	}
	// The fault was one-shot; a retry streams clean.
	if got := rawStream(t, ts, st.ID); len(got) != 3 {
		t.Fatalf("post-fault retry = %d lines, want 3", len(got))
	}
}
