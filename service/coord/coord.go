// Package coord shards fleet diagnosis jobs across a pool of memtestd
// worker nodes. The coordinator speaks the exact wire API of a single
// memtestd (it implements service.Backend, so service.NewServer serves
// it unchanged): clients submit one job, and the coordinator splits
// its device range into contiguous shards, dispatches each shard as an
// ordered first_device range job on a worker, and merges the worker
// streams back into one spool in device order. Per-device seeds derive
// from absolute device indices, so the merged stream is byte-identical
// to the same job run on one node.
//
// The job lifecycle (table, backlog, manifests, recovery, followers,
// cancel, retention, close) is memtestd's own service.Kernel; this
// package adds only the shard dispatch, ordered merge and stealing.
// Failure handling layers on the single-node machinery instead of
// reinventing it: worker streams are self-healing client reconnects
// (a worker restart mid-shard resumes via the worker's own crash
// resume and heals invisibly), a worker dead past the reconnect budget
// has its shard's missing remainder re-dispatched to a healthy worker
// at first_device = shard lo + merged, and the coordinator persists
// its own manifest and merged spool through service/store, so a
// coordinator restart recovers the shard table and re-attaches to the
// worker jobs, re-merging only the missing suffix.
package coord

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/memtest"
	"repro/service"
	"repro/service/client"
	"repro/service/store"
)

// Config sizes a Coordinator.
type Config struct {
	// Workers seeds the worker membership table, as base URLs. Workers
	// must have crash resume enabled with ordered delivery; New refuses
	// any reachable worker that does not. The set is mutable at runtime
	// via AddWorker / RemoveWorker (the POST/DELETE /v1/workers
	// routes), so an empty seed is allowed — jobs just fail to dispatch
	// until a worker joins.
	Workers []string
	// HTTP overrides the http.Client used for every worker call; nil
	// selects http.DefaultClient.
	HTTP *http.Client
	// Jobs is the concurrent-merge worker count (default 2); Queue the
	// bounded backlog beyond them (default 16).
	Jobs  int
	Queue int
	// MinShard floors the devices per shard (default 64): a job is
	// split into min(workers, devices/MinShard) shards, at least one,
	// so tiny jobs do not pay dispatch overhead per handful of devices.
	MinShard int
	// Redispatches is the per-shard budget of moves to a new worker
	// after a stream failed past the reconnect schedule (default 3).
	Redispatches int
	// Backoff shapes each shard stream's reconnect schedule; the zero
	// value selects the client defaults.
	Backoff client.Backoff
	// ProbeTimeout bounds one worker health probe (default 2s).
	ProbeTimeout time.Duration
	// ProbeInterval is the background prober's re-probe cadence for a
	// healthy worker (default 2s). Dispatch and healthz read the cached
	// result — neither ever blocks on a live probe.
	ProbeInterval time.Duration
	// ProbeBackoffMax caps the per-worker exponential probe backoff a
	// failing worker accumulates (default 30s).
	ProbeBackoffMax time.Duration
	// QuarantineAfter is how many consecutive probe failures — or
	// active->down flaps — move a worker to quarantined (default 3),
	// where pick skips it until RejoinAfter consecutive clean probes.
	QuarantineAfter int
	// RejoinAfter is the consecutive clean probes a quarantined worker
	// needs to rejoin the active set (default 2).
	RejoinAfter int
	// StealThreshold enables straggler work-stealing when positive: a
	// shard whose unmerged remainder exceeds StealThreshold times the
	// fleet's median shard remainder — with an idle capable worker
	// available — has that remainder re-split via the shard planner and
	// dispatched as new ordered range jobs, the superseded worker job
	// cancelled. Zero disables stealing.
	StealThreshold float64
	// StealInterval is how often the steal monitor sizes up a running
	// job's shards (default 1s).
	StealInterval time.Duration
	// Store persists the coordinator's own manifests and merged spools.
	// Nil selects in-memory (jobs die with the process); a disk store
	// makes coordinated jobs survive coordinator restarts.
	Store store.Store
	// RetainJobs / RetainBytes cap retained finished jobs, exactly as
	// on the single-node manager. Zero keeps all.
	RetainJobs  int
	RetainBytes int64
	// Metrics, when non-nil, receives the coordinator's instruments —
	// shard dispatch and re-dispatch, merged lines and merge lag, the
	// self-healing stream totals and the per-worker fleet view — for
	// the /metrics endpoint. Nil disables instrumentation.
	Metrics *obs.Registry
	// Logger receives structured lifecycle events (accepted, started,
	// shard dispatched / re-dispatched, finished) with job= and shard=
	// context. Nil discards them.
	Logger *slog.Logger
	// NoResume disables coordinator restart resume: interrupted jobs
	// recover as failed with their merged prefix streamable.
	NoResume bool
}

func (c Config) withDefaults() Config {
	if c.Jobs <= 0 {
		c.Jobs = 2
	}
	if c.Queue <= 0 {
		c.Queue = 16
	}
	if c.MinShard <= 0 {
		c.MinShard = 64
	}
	if c.Redispatches <= 0 {
		c.Redispatches = 3
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeBackoffMax <= 0 {
		c.ProbeBackoffMax = 30 * time.Second
	}
	if c.ProbeBackoffMax < c.ProbeInterval {
		c.ProbeBackoffMax = c.ProbeInterval
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 3
	}
	if c.RejoinAfter <= 0 {
		c.RejoinAfter = 2
	}
	if c.StealInterval <= 0 {
		c.StealInterval = time.Second
	}
	return c
}

// Coordinator is memtest-coord's backend: the shared job kernel
// running each job as shard dispatch plus ordered merge, over the
// worker registry. It implements service.Backend.
type Coordinator struct {
	cfg Config
	k   *service.Kernel
	reg *registry
	now func() time.Time
	// metrics is never nil; with Config.Metrics unset its instruments
	// are nil no-ops. meter feeds the rolling merged-devices/s gauge;
	// streamStats is shared by every shard stream.
	metrics     *coordMetrics
	log         *slog.Logger
	meter       obs.Meter
	streamStats client.StreamStats
}

// New seeds and sweeps the worker membership table, recovers any
// stored jobs, and starts the merge workers plus the background
// prober that owns worker health from here on. Reachable workers that
// are not shard-capable (crash resume disabled, or unordered resume
// delivery) are refused outright; unreachable ones are tolerated — the
// prober keeps re-probing them with backoff. Call Close to stop the
// coordinator and release the store.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	log := cfg.Logger
	if log == nil {
		log = obs.Discard()
	}
	c := &Coordinator{
		cfg:     cfg,
		reg:     newRegistry(cfg.Workers, cfg.HTTP, cfg),
		now:     time.Now,
		metrics: newCoordMetrics(cfg.Metrics),
		log:     log,
	}
	if err := c.reg.sweep(context.Background()); err != nil {
		return nil, err
	}
	k, err := service.NewKernel(service.KernelConfig{
		Jobs: cfg.Jobs, Queue: cfg.Queue, Store: cfg.Store,
		RetainJobs: cfg.RetainJobs, RetainBytes: cfg.RetainBytes, NoResume: cfg.NoResume,
		Metrics: cfg.Metrics, Logger: cfg.Logger,
	}, service.KernelHooks{
		Run:          c.run,
		Resumable:    resumable,
		Plan:         c.plan,
		Abort:        c.cancelShardJobs,
		MetricPrefix: "coord_",
		QueueMetric:  "coord_queue",
		Restarter:    "coordinator",
		Spool:        "merged spool",
	})
	if err != nil {
		return nil, err
	}
	c.k = k
	c.registerGauges(cfg.Metrics)
	for _, w := range c.reg.list() {
		c.registerWorkerGauges(w)
	}
	k.Go(c.reg.prober)
	k.Start()
	return c, nil
}

// planWorkers is the live shard-sizing input: the active workers'
// summed idle device-worker pools from the prober's cached health, so
// a degraded fleet plans fewer, larger shards instead of parking
// ranges on capacity that is not there. Falls back to the active
// worker count when nothing reports idle capacity, and to 1 when the
// whole fleet is dark (the job then waits on dispatch, not planning).
func (c *Coordinator) planWorkers() int {
	idle, active := c.reg.capacity()
	if idle <= 0 {
		idle = active
	}
	return max(idle, 1)
}

// AddWorker joins a memtestd node to the fleet by base URL. It is
// idempotent; a fresh join is probed inline so the returned view (and
// the next dispatch) reflects the worker's actual state.
func (c *Coordinator) AddWorker(rawURL string) (service.WorkerHealth, error) {
	u, err := normalizeWorkerURL(rawURL)
	if err != nil {
		return service.WorkerHealth{}, err
	}
	if c.k.Context().Err() != nil {
		return service.WorkerHealth{}, service.ErrShuttingDown
	}
	w, fresh := c.reg.add(u)
	if fresh {
		c.registerWorkerGauges(w)
		c.reg.probeOne(c.k.Context(), w) //nolint:errcheck // the view below reports the outcome
		v := w.view(c.now())
		c.log.Info("worker joined", "worker", u, "state", v.State, "error", v.Error)
		return v, nil
	}
	return w.view(c.now()), nil
}

// RemoveWorker drops a worker from the fleet. Shards currently
// dispatched to it are not interrupted here — their streams fail the
// membership lookup and re-dispatch to the survivors.
func (c *Coordinator) RemoveWorker(rawURL string) error {
	u, err := normalizeWorkerURL(rawURL)
	if err != nil {
		return err
	}
	w := c.reg.remove(u)
	if w == nil {
		return fmt.Errorf("%w: %q", service.ErrUnknownWorker, rawURL)
	}
	c.unregisterWorkerGauges(u)
	c.log.Info("worker removed", "worker", u)
	return nil
}

// Workers returns the cached per-worker fleet view — the same rows
// Health carries, served from the prober's cache.
func (c *Coordinator) Workers() []service.WorkerHealth {
	views, _, _ := c.reg.snapshot()
	return views
}

// Metrics returns the registry the coordinator was configured with
// (nil when unmetered). The server mounts GET /metrics over it.
func (c *Coordinator) Metrics() *obs.Registry { return c.cfg.Metrics }

// plan lays a job's shard table out over the live fleet. For a job
// recovery re-enqueues it re-derives a table the manifest lacks, then
// rebases the Merged counters onto the spooled prefix: the spool is
// authoritative over the shard counters, since a crash between an
// append and the next shard-boundary checkpoint leaves Merged stale.
func (c *Coordinator) plan(req service.JobRequest, st *service.JobStatus) {
	if len(st.Shards) == 0 {
		st.Shards = planShards(req.FirstDevice, req.Devices, c.planWorkers(), c.cfg.MinShard)
	}
	rebaseMerged(st.Shards, st.Completed)
}

// resumable reports whether a recovered request can drive a resumed
// merge. Unlike the single-node manager, any requested delivery
// resumes: the coordinator always dispatches shards ordered and merges
// in device order, so its spool is a device prefix regardless.
func resumable(req service.JobRequest) bool {
	_, err := req.Resolve()
	return err == nil
}

// run is the kernel's run hook: dispatch and ordered merge, watched
// by the steal monitor when stealing is enabled.
func (c *Coordinator) run(ctx context.Context, j *service.Job) error {
	d := &drain{}
	if c.cfg.StealThreshold > 0 {
		// The steal monitor lives exactly as long as this run: the
		// kernel cancels ctx when the run ends.
		go c.stealMonitor(ctx, j, d)
	}
	return c.merge(ctx, j, d)
}

// Submit validates a job request, plans its shard table and enqueues
// it. A bad request never occupies a queue slot, a full queue returns
// ErrQueueFull without blocking.
func (c *Coordinator) Submit(req service.JobRequest) (service.JobStatus, error) {
	return c.k.Submit(req)
}

// Status returns a job's current state, shard table included.
func (c *Coordinator) Status(id string) (service.JobStatus, error) { return c.k.Status(id) }

// Jobs lists every retained coordinated job in submission order.
func (c *Coordinator) Jobs() []service.JobStatus { return c.k.Jobs() }

// Cancel stops a coordinated job; its dispatched worker jobs are
// cancelled as the merge unwinds.
func (c *Coordinator) Cancel(id string) (service.JobStatus, error) { return c.k.Cancel(id) }

// Follow streams a job's merged result lines from line offset onward;
// see service.Backend.Follow for the contract.
func (c *Coordinator) Follow(ctx context.Context, id string, offset int, emit func([]byte) error) (string, error) {
	return c.k.Follow(ctx, id, offset, emit)
}

// Diagnose forwards the one-shot to a capable worker: the coordinator
// never diagnoses in-process, so /v1/diagnose capacity is the fleet's.
func (c *Coordinator) Diagnose(ctx context.Context, req service.JobRequest) (*memtest.Result, error) {
	if _, err := req.Resolve(); err != nil {
		return nil, err
	}
	w, err := c.reg.pick(nil, "")
	if err != nil {
		return nil, fmt.Errorf("%w: no capable worker: %v", service.ErrShuttingDown, err)
	}
	res, err := w.cli.Diagnose(ctx, req)
	if err != nil {
		return nil, forwardErr(err)
	}
	return res, nil
}

// forwardErr translates a worker-call failure into the sentinel the
// server maps onto the matching HTTP status: worker 429s stay 429,
// worker 5xx and transport failures become 500, anything else is the
// client's mistake (400).
func forwardErr(err error) error {
	var api *client.APIError
	if errors.As(err, &api) {
		switch {
		case api.StatusCode == http.StatusTooManyRequests:
			return fmt.Errorf("%w: %s", service.ErrDiagnoseBusy, api.Message)
		case api.StatusCode >= 500:
			return fmt.Errorf("%w: %s", service.ErrDiagnose, api.Message)
		}
		return fmt.Errorf("coord: worker: %s", api.Message)
	}
	return fmt.Errorf("%w: %v", service.ErrDiagnose, err)
}

// Health reports the coordinator's own capacity and load plus the
// per-worker fleet view; FleetWorkers and IdleWorkers aggregate the
// active workers' pools. The fleet view is the prober's cache — a
// healthz scrape never fans out worker probes.
func (c *Coordinator) Health() service.Health {
	views, fleetWorkers, idle := c.reg.snapshot()
	h := c.k.Health()
	h.FleetWorkers, h.IdleWorkers, h.Workers = fleetWorkers, idle, views
	h.DevicesPerSec = c.meter.Rate()
	return h
}

// Close stops accepting submissions, cancels every running merge and
// the prober, waits for them to unwind, cancels the backlog and
// releases the store. It is idempotent.
func (c *Coordinator) Close() { c.k.Close() }
