package coord_test

// The job lifecycle contract both backends share through the service
// job kernel, pinned once per backend: every case runs against a
// single-node Manager and against a Coordinator over in-process
// workers.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/memtest"
	"repro/service"
	"repro/service/coord"
	"repro/service/store"
)

// lifecycleBackend is a service.Backend that can be shut down.
type lifecycleBackend interface {
	service.Backend
	Close()
}

// sizing is the part of a backend's configuration the cases vary.
type sizing struct {
	jobs, queue, retainJobs int
	store                   store.Store
}

var backends = []struct {
	name string
	new  func(t *testing.T, sz sizing) lifecycleBackend
}{
	{"manager", func(t *testing.T, sz sizing) lifecycleBackend {
		m, err := service.NewManager(service.Config{
			Jobs: sz.jobs, Queue: sz.queue, RetainJobs: sz.retainJobs, Store: sz.store,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		return m
	}},
	{"coordinator", func(t *testing.T, sz sizing) lifecycleBackend {
		w := newWorker(t, service.Config{Jobs: 4, Queue: 8})
		c, err := coord.New(coord.Config{
			Workers: []string{w.URL}, Jobs: sz.jobs, Queue: sz.queue,
			RetainJobs: sz.retainJobs, Store: sz.store, Backoff: fastBackoff(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}},
}

// parkEngine parks every device until its context ends, so a job on it
// runs until cancelled.
type parkEngine string

func (e parkEngine) Name() string     { return string(e) }
func (e parkEngine) Describe() string { return string(e) }
func (e parkEngine) Run(ctx context.Context, _ *memtest.Fleet, _ memtest.EngineOptions) (*memtest.Report, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

var parkSeq atomic.Int64

// parkedRequest registers a fresh park engine for the test and returns
// a request that runs on it until cancelled.
func parkedRequest(t *testing.T) service.JobRequest {
	t.Helper()
	e := parkEngine(fmt.Sprintf("lifecycle-park-%d", parkSeq.Add(1)))
	if err := memtest.RegisterEngine(e); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { memtest.UnregisterEngine(e.Name()) })
	return service.JobRequest{Plan: testPlan(), Devices: 2, Scheme: e.Name(), Delivery: "ordered"}
}

func submit(t *testing.T, b service.Backend, req service.JobRequest) service.JobStatus {
	t.Helper()
	st, err := b.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// awaitRunning polls until the job has left the backlog.
func awaitRunning(t *testing.T, b service.Backend, id string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := b.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == service.StateRunning {
			return
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s = %q (%s), want running", id, st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// follow drains a job's stream and returns its lines and terminal error.
func follow(t *testing.T, b service.Backend, id string) ([]string, string) {
	t.Helper()
	var lines []string
	jobErr, err := b.Follow(context.Background(), id, 0, func(line []byte) error {
		lines = append(lines, string(line))
		return nil
	})
	if err != nil {
		t.Fatalf("follow %s: %v", id, err)
	}
	return lines, jobErr
}

func TestLifecycleContract(t *testing.T) {
	quick := func(seed int64) service.JobRequest {
		return service.JobRequest{Plan: testPlan(), Devices: 3, Seed: seed, Delivery: "ordered"}
	}
	cases := []struct {
		name string
		sz   sizing
		run  func(t *testing.T, b lifecycleBackend, dir string)
	}{
		{"queue full at capacity", sizing{jobs: 1, queue: 1}, func(t *testing.T, b lifecycleBackend, _ string) {
			req := parkedRequest(t)
			awaitRunning(t, b, submit(t, b, req).ID)
			submit(t, b, req)
			if _, err := b.Submit(req); !errors.Is(err, service.ErrQueueFull) {
				t.Fatalf("submit past capacity = %v, want ErrQueueFull", err)
			}
		}},
		{"cancelled queued job frees its slot", sizing{jobs: 1, queue: 1}, func(t *testing.T, b lifecycleBackend, _ string) {
			req := parkedRequest(t)
			awaitRunning(t, b, submit(t, b, req).ID)
			queued := submit(t, b, req)
			st, err := b.Cancel(queued.ID)
			if err != nil || st.State != service.StateCancelled {
				t.Fatalf("cancel queued = %+v, %v", st, err)
			}
			if _, jobErr := follow(t, b, queued.ID); jobErr == "" {
				t.Fatal("follower of a cancelled job saw no job error")
			}
			submit(t, b, req) // the slot is free again
		}},
		{"follow after terminal replays byte-identically", sizing{jobs: 1, queue: 4}, func(t *testing.T, b lifecycleBackend, _ string) {
			st := submit(t, b, quick(5))
			live, jobErr := follow(t, b, st.ID)
			if jobErr != "" || len(live) != 3 {
				t.Fatalf("live follow = %d lines, job error %q", len(live), jobErr)
			}
			replay, _ := follow(t, b, st.ID)
			if fmt.Sprint(replay) != fmt.Sprint(live) {
				t.Fatalf("replay differs from the live stream:\nlive  : %v\nreplay: %v", live, replay)
			}
		}},
		{"retention evicts the oldest finished job", sizing{jobs: 1, queue: 4, retainJobs: 1}, func(t *testing.T, b lifecycleBackend, dir string) {
			old := submit(t, b, quick(1))
			follow(t, b, old.ID)
			// The follower returns once the newer job's terminal state is
			// observable; by then its eviction of the older job must be
			// complete in the table and on disk — no polling.
			follow(t, b, submit(t, b, quick(2)).ID)
			if _, err := b.Status(old.ID); !errors.Is(err, service.ErrUnknownJob) {
				t.Fatalf("evicted job status err = %v, want ErrUnknownJob", err)
			}
			for _, suffix := range []string{".json", ".ndjson"} {
				if _, err := os.Stat(filepath.Join(dir, old.ID+suffix)); !os.IsNotExist(err) {
					t.Fatalf("evicted %s%s still on disk (err=%v)", old.ID, suffix, err)
				}
			}
		}},
		{"close cancels the backlog and releases followers", sizing{jobs: 1, queue: 2}, func(t *testing.T, b lifecycleBackend, _ string) {
			req := parkedRequest(t)
			running := submit(t, b, req)
			awaitRunning(t, b, running.ID)
			queued := submit(t, b, req)
			released := make(chan string, 2)
			for _, id := range []string{running.ID, queued.ID} {
				go func() {
					jobErr, _ := b.Follow(context.Background(), id, 0, func([]byte) error { return nil })
					released <- jobErr
				}()
			}
			b.Close()
			for range 2 {
				select {
				case jobErr := <-released:
					if jobErr == "" {
						t.Error("follower released without the cancellation error")
					}
				case <-time.After(15 * time.Second):
					t.Fatal("follower never released by Close")
				}
			}
			for _, id := range []string{running.ID, queued.ID} {
				if st, err := b.Status(id); err != nil || st.State != service.StateCancelled {
					t.Fatalf("job %s after Close = %+v, %v; want cancelled", id, st, err)
				}
			}
		}},
	}
	for _, be := range backends {
		for _, tc := range cases {
			t.Run(be.name+"/"+tc.name, func(t *testing.T) {
				dir := t.TempDir()
				st, err := store.NewDisk(dir)
				if err != nil {
					t.Fatal(err)
				}
				sz := tc.sz
				sz.store = st
				tc.run(t, be.new(t, sz), dir)
			})
		}
	}
}
