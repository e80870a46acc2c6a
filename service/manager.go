package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"

	"repro/internal/obs"
	"repro/memtest"
	"repro/service/store"
)

// Typed manager errors; the server maps them onto HTTP statuses.
var (
	// ErrQueueFull: the bounded backlog is full (HTTP 429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDiagnoseBusy: every one-shot diagnosis slot is taken
	// (HTTP 429).
	ErrDiagnoseBusy = errors.New("service: diagnose capacity exhausted")
	// ErrUnknownJob: no job with that ID (HTTP 404).
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrShuttingDown: the manager no longer accepts work (HTTP 503).
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrBadDevices: a job submission without a positive device count.
	ErrBadDevices = errors.New("service: job needs a positive device count")
	// ErrBadFirstDevice: a job submission with a negative first_device.
	ErrBadFirstDevice = errors.New("service: first_device must be non-negative")
	// ErrDiagnose: a one-shot diagnosis run itself failed (HTTP 500) —
	// the request was fine, the engine was not.
	ErrDiagnose = errors.New("service: diagnosis failed")
	// ErrStorage: the job store failed (HTTP 500) — e.g. the data
	// directory became unwritable mid-job.
	ErrStorage = errors.New("service: job storage")
	// ErrJobTimeout: the job ran past its requested timeout_sec
	// deadline. It appears (wrapped, with the configured timeout) as
	// the distinct error string of an expired job, whose spooled
	// prefix stays streamable.
	ErrJobTimeout = errors.New("service: job deadline exceeded")
	// ErrBadTimeout: a job submission with a negative timeout_sec.
	ErrBadTimeout = errors.New("service: timeout_sec must be non-negative")
	// ErrUnknownWorker: a membership request named a worker URL the
	// coordinator does not have (HTTP 404).
	ErrUnknownWorker = errors.New("service: unknown worker")
	// ErrBadWorkerURL: a membership request with an unusable worker URL
	// (HTTP 400).
	ErrBadWorkerURL = errors.New("service: bad worker url")
)

// Config sizes a Manager.
type Config struct {
	// Jobs is the scheduler worker count — the maximum number of jobs
	// diagnosing concurrently. Zero defaults to 2.
	Jobs int
	// Queue is the bounded backlog beyond the running jobs; a Submit
	// while it is full fails with ErrQueueFull. Zero defaults to 16.
	Queue int
	// FleetWorkers is the shared device-worker capacity lent out to
	// jobs as they start: a job starting on an otherwise idle manager
	// borrows the whole pool, one starting alongside queued work takes
	// its fair split of what is still available, and every grant is
	// returned when the job finishes. A job never gets less than one
	// worker, so a saturated pool oversubscribes by at most one worker
	// per running job instead of stalling. Zero defaults to GOMAXPROCS.
	FleetWorkers int
	// Store persists job manifests and result spools. Nil selects an
	// in-memory store: jobs die with the process, exactly the pre-
	// persistence behaviour. With a disk store (store.NewDisk), jobs
	// survive restarts — NewManager recovers the directory on startup.
	Store store.Store
	// RetainJobs caps how many finished (done, failed or cancelled)
	// jobs are kept; the oldest are evicted — removed from the job
	// table and the store — once the cap is exceeded. Zero keeps all.
	RetainJobs int
	// RetainBytes caps the total bytes of spooled results across all
	// jobs; oldest finished jobs are evicted until the total fits.
	// Running jobs count toward the total but are never evicted. Zero
	// keeps all.
	RetainBytes int64
	// Metrics, when non-nil, receives the manager's instruments —
	// queue depth, jobs by state, device throughput, spool traffic,
	// resume and retention counters — for the /metrics endpoint. Nil
	// disables instrumentation entirely: every hot-path update
	// degrades to a nil check, so an unmetered manager pays nothing.
	Metrics *obs.Registry
	// Logger receives structured job lifecycle events (accepted,
	// started, finished, resumed, evicted) with job= context. Nil
	// discards them.
	Logger *slog.Logger
	// NoResume disables crash resume. By default a recovered
	// ordered-delivery job whose manifest says queued or running
	// re-enqueues as resuming: the scheduler counts the spooled
	// complete lines and re-runs only the missing device suffix, so
	// the final stream is byte-identical to a crash-free run.
	// (Unordered jobs always recover as failed — their spool holds
	// whichever devices finished first, not a resumable prefix.) With
	// NoResume (the daemon's -resume=false), every interrupted job
	// recovers as failed with its partial results retained — the
	// pre-resume behaviour.
	NoResume bool
}

func (c Config) withDefaults() Config {
	if c.Jobs <= 0 {
		c.Jobs = 2
	}
	if c.Queue <= 0 {
		c.Queue = 16
	}
	if c.FleetWorkers <= 0 {
		c.FleetWorkers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Manager is memtestd's backend: the shared job kernel running each
// job as a local RunFleetRange, plus the fleet-worker ledger and the
// one-shot diagnosis slots. One Manager backs one Server.
type Manager struct {
	cfg Config
	k   *Kernel
	// metrics is never nil; with Config.Metrics unset its instruments
	// are nil no-ops. meter feeds the rolling devices/s gauge healthz
	// reports even without a registry.
	metrics *metrics
	meter   obs.Meter
	// diagSem bounds concurrent one-shot diagnoses to cfg.Jobs, so
	// /v1/diagnose cannot bypass the capacity the scheduler enforces
	// for jobs.
	diagSem chan struct{}

	mu sync.Mutex
	// avail is the fleet-worker ledger: FleetWorkers minus the grants
	// currently lent to running jobs. The 1-worker floor can push it
	// negative (bounded oversubscription); releases restore it.
	avail int
	// resumeDevicesRerun counts the devices crash resumes re-ran since
	// this process started, exposed via Health.
	resumeDevicesRerun int64
}

// NewManager starts cfg.Jobs scheduler workers over cfg.Store (an
// in-memory store when nil) and returns the ready manager. With a
// durable store it first recovers the stored jobs: finished jobs
// replay their spooled results byte-identically, and ordered-delivery
// jobs that were queued or running when the previous process died
// re-enqueue as resuming — only their missing device suffix is re-run,
// so the final stream is byte-identical to a crash-free run (unordered
// jobs, or with cfg.NoResume any job, are marked failed instead, their
// spooled prefix still streamable). Call Close to stop the manager and
// release the store.
func NewManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:     cfg,
		metrics: newMetrics(cfg.Metrics),
		diagSem: make(chan struct{}, cfg.Jobs),
		avail:   cfg.FleetWorkers,
	}
	st := cfg.Store
	if cfg.Metrics != nil {
		// Only a metered manager pays the decorator indirection.
		if st == nil {
			st = store.NewMem()
		}
		st = measuredStore{Store: st, x: m.metrics}
	}
	k, err := NewKernel(KernelConfig{
		Jobs: cfg.Jobs, Queue: cfg.Queue, Store: st,
		RetainJobs: cfg.RetainJobs, RetainBytes: cfg.RetainBytes, NoResume: cfg.NoResume,
		Metrics: cfg.Metrics, Logger: cfg.Logger,
	}, KernelHooks{
		Run:         m.run,
		Resumable:   resumable,
		Claim:       m.claimWorkers,
		QueueMetric: "jobs_queue",
		Restarter:   "server",
		Spool:       "result spool",
	})
	if err != nil {
		return nil, err
	}
	m.k = k
	m.registerGauges(cfg.Metrics)
	k.Start()
	return m, nil
}

// Metrics returns the registry the manager was configured with (nil
// when unmetered). The server mounts GET /metrics over it.
func (m *Manager) Metrics() *obs.Registry { return m.cfg.Metrics }

// resumable reports whether a recovered manifest's request supports
// crash resume. The delivery must be ordered: only then is the spooled
// prefix exactly devices [0, K), the contiguous range RunFleetRange
// extends — an unordered job's spool holds whichever K devices
// finished first, so resuming it would duplicate some devices and drop
// others. The request must also still build a session — the engine may
// have been registered by a binary that no longer runs. An unresumable
// request degrades to the failed-with-partials recovery, never an
// error.
func resumable(req JobRequest) bool {
	if d, err := memtest.ParseFleetDelivery(req.Delivery); err != nil || d != memtest.Ordered {
		return false
	}
	_, err := req.session(1)
	return err == nil
}

// StartDiagnose claims a one-shot diagnosis slot; it fails with
// ErrDiagnoseBusy when all cfg.Jobs slots are in flight, and with
// ErrShuttingDown after Close. The returned context derives from ctx
// but is also cancelled when the manager shuts down, so an in-flight
// diagnosis aborts on Close just like a job. The returned release
// must be called when the diagnosis ends.
func (m *Manager) StartDiagnose(ctx context.Context) (context.Context, func(), error) {
	if m.k.Context().Err() != nil {
		return nil, nil, ErrShuttingDown
	}
	select {
	case m.diagSem <- struct{}{}:
		dctx, cancel := context.WithCancel(ctx)
		stop := context.AfterFunc(m.k.Context(), cancel)
		release := func() {
			stop()
			cancel()
			<-m.diagSem
		}
		return dctx, release, nil
	default:
		return nil, nil, fmt.Errorf("%w (capacity %d)", ErrDiagnoseBusy, m.cfg.Jobs)
	}
}

// claimWorkers grants a starting job its fleet-worker share: the
// available capacity split evenly with the jobs still queued behind
// it, capped by the job's device count and its requested worker limit,
// with a floor of one. The grant is deducted from the ledger until the
// returned release gives it back.
func (m *Manager) claimWorkers(j *Job, queued int) (int, func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	share := m.avail / (1 + queued)
	// A resume only has the missing suffix left to fan out.
	if remaining := j.Req.Devices - j.ResumeFrom; share > remaining {
		share = remaining
	}
	if j.Req.Workers > 0 && j.Req.Workers < share {
		share = j.Req.Workers
	}
	share = max(share, 1)
	m.avail -= share
	m.metrics.workerGrants.Add(int64(share))
	return share, func() { m.releaseWorkers(share) }
}

// observeDevice is the per-device fleet-worker hook memtestd installs
// on every session: one atomic counter bump and one meter tick per
// diagnosed device, allocation-free (pinned by the memtest observer
// alloc test).
func (m *Manager) observeDevice(int) {
	m.metrics.devicesDiagnosed.Inc()
	m.meter.Add(1)
}

func (m *Manager) releaseWorkers(n int) {
	m.mu.Lock()
	m.avail += n
	m.mu.Unlock()
}

// run is the kernel's run hook: it streams Session.RunFleetRange with
// the job's worker grant (the full range for a fresh job, the missing
// suffix for a resume) and spools each device's result as its worker
// finishes.
func (m *Manager) run(ctx context.Context, j *Job) error {
	// The session is built at start time, not submit time, so the
	// worker grant reflects the load of the moment it runs. The device
	// observer feeds the live throughput instruments.
	session, err := j.Req.session(j.Status().Workers, memtest.WithDeviceObserver(m.observeDevice))
	if err != nil {
		return err
	}
	// A fresh job runs its full range (offset by first_device when it
	// is a shard of a larger fleet); a resume re-runs only the missing
	// suffix, appending to the spooled prefix — the final stream is
	// byte-identical to a crash-free run.
	lo := j.Req.FirstDevice + j.ResumeFrom
	if j.Resume {
		m.mu.Lock()
		m.resumeDevicesRerun += int64(j.Req.Devices - j.ResumeFrom)
		m.mu.Unlock()
	}
	// One encode buffer per run: every device result is marshalled into
	// it and handed to the store, which copies (memory) or batches
	// (disk) it — no fresh allocation and, with a disk store, no write
	// syscall per result.
	var encBuf bytes.Buffer
	enc := json.NewEncoder(&encBuf)
	for dr, err := range session.RunFleetRange(ctx, lo, j.Req.FirstDevice+j.Req.Devices) {
		if err != nil {
			return err
		}
		encBuf.Reset()
		if err := enc.Encode(dr); err != nil {
			return err
		}
		// Encode terminates with exactly one newline; the spool stores
		// bare lines.
		if err := j.Append(bytes.TrimSuffix(encBuf.Bytes(), []byte("\n"))); err != nil {
			return err
		}
		m.metrics.devicesCompleted.Inc()
	}
	return nil
}

// Submit validates a job request, assigns it an ID, creates its spool
// and enqueues it. It fails fast: a bad request never occupies a queue
// slot, and a full queue returns ErrQueueFull without blocking.
func (m *Manager) Submit(req JobRequest) (JobStatus, error) { return m.k.Submit(req) }

// Status returns a job's current state.
func (m *Manager) Status(id string) (JobStatus, error) { return m.k.Status(id) }

// Jobs lists every retained job in submission order, recovered jobs
// included.
func (m *Manager) Jobs() []JobStatus { return m.k.Jobs() }

// Cancel stops a job: a queued job is pulled out of the backlog (its
// slot frees immediately) and finishes as cancelled, a running one
// has its context cancelled and the engines abort within one poll
// interval. Cancelling a terminal job is a no-op. The returned status
// is the state right after the request took effect — a running job
// may still report "running" until its workers unwind.
func (m *Manager) Cancel(id string) (JobStatus, error) { return m.k.Cancel(id) }

// Follow streams a job's spooled and live result lines starting at
// line `offset` (0 replays everything); see Backend.Follow for the
// contract.
func (m *Manager) Follow(ctx context.Context, id string, offset int, emit func([]byte) error) (string, error) {
	return m.k.Follow(ctx, id, offset, emit)
}

// Health reports configured capacity, current load and resume
// capability — the capability fields are what memtest-coord inspects
// before trusting a worker with a shard.
func (m *Manager) Health() Health {
	h := m.k.Health()
	h.Diagnosing = len(m.diagSem)
	h.FleetWorkers = m.cfg.FleetWorkers
	h.DevicesPerSec = m.meter.Rate()
	m.mu.Lock()
	defer m.mu.Unlock()
	h.IdleWorkers = max(m.avail, 0)
	h.ResumeDevicesRerun = m.resumeDevicesRerun
	return h
}

// Diagnose runs one device synchronously under a context that follows
// both ctx (a disconnecting client aborts the engines directly) and
// the manager's lifetime (shutdown aborts in-flight one-shots instead
// of blocking the drain). One-shots draw from their own cfg.Jobs-sized
// slot pool, so they are capacity-bounded like jobs; overload fails
// with ErrDiagnoseBusy. A run the engine itself fails wraps
// ErrDiagnose; a run aborted by shutdown wraps ErrShuttingDown.
func (m *Manager) Diagnose(ctx context.Context, req JobRequest) (*memtest.Result, error) {
	// One-shots run a single device, so the fleet-worker pool is not
	// involved; the session only needs the plan and options validated.
	session, err := req.session(1)
	if err != nil {
		return nil, err
	}
	dctx, release, err := m.StartDiagnose(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	res, err := session.RunAll(dctx)
	switch {
	case err == nil:
		return res, nil
	case ctx.Err() != nil:
		return nil, ctx.Err()
	case errors.Is(err, context.Canceled):
		// The manager shut down under the request.
		return nil, fmt.Errorf("%w: diagnosis aborted", ErrShuttingDown)
	default:
		return nil, fmt.Errorf("%w: %v", ErrDiagnose, err)
	}
}

// Close stops accepting submissions, cancels every running job and
// in-flight one-shot diagnosis, waits for the scheduler workers to
// unwind, marks the backlog cancelled (so every follower's stream
// terminates) and releases the store. It is idempotent.
func (m *Manager) Close() { m.k.Close() }
