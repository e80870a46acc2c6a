package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/service/store"
)

// KernelConfig sizes a Kernel. Its fields mean exactly what the
// same-named Config fields mean; memtestd and memtest-coord copy them
// across unchanged.
type KernelConfig struct {
	Jobs        int
	Queue       int
	Store       store.Store
	RetainJobs  int
	RetainBytes int64
	NoResume    bool
	Metrics     *obs.Registry
	Logger      *slog.Logger
}

// KernelHooks is everything a backend adds to the shared job
// lifecycle: how a job runs, plus the few points where memtestd and
// memtest-coord differ.
type KernelHooks struct {
	// Run executes a started job under ctx, which carries the job's
	// timeout and is cancelled by Cancel and Close. A nil error ends the
	// job done; context errors map onto failed (deadline) or cancelled.
	Run func(ctx context.Context, j *Job) error
	// Resumable reports whether a recovered request can drive a
	// resumed run; an unresumable interrupted job recovers as failed.
	Resumable func(req JobRequest) bool
	// Plan, when set, fills the backend's part of a job's status as
	// the job is accepted and again when recovery re-enqueues it;
	// st.Completed is the already-spooled prefix (0 on Submit).
	Plan func(req JobRequest, st *JobStatus)
	// Claim, when set, runs before a job starts with the number of
	// jobs still queued behind it. Its worker count is recorded in the
	// running status; release is called once the run has ended.
	Claim func(j *Job, queued int) (workers int, release func())
	// Abort, when set, runs after a job ended with an error, once its
	// terminal state is published.
	Abort func(j *Job)

	// MetricPrefix goes in front of the shared series names ("" on
	// memtestd, "coord_" on memtest-coord); QueueMetric names the
	// backlog gauges, QueueMetric+"_depth" and QueueMetric+"_capacity".
	MetricPrefix string
	QueueMetric  string
	// Restarter and Spool word the errors of jobs recovered as failed:
	// "interrupted by <Restarter> restart; <Spool> unreadable".
	Restarter string
	Spool     string
}

// Kernel is the job lifecycle memtestd's Manager and memtest-coord's
// Coordinator share: the job table, the bounded backlog, the scheduler
// workers, manifest persistence, crash recovery, the cond-broadcast
// follower, cancel, retention and close. A backend supplies only its
// KernelHooks.
type Kernel struct {
	cfg     KernelConfig
	hooks   KernelHooks
	store   store.Store
	now     func() time.Time
	log     *slog.Logger
	x       kernelMetrics
	started time.Time

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu sync.Mutex
	// backlog is the bounded queue (cap cfg.Queue). A slice, not a
	// channel, so Cancel can remove a queued job immediately instead of
	// leaving a dead entry occupying a slot; qcond signals workers when
	// it fills.
	backlog []*Job
	qcond   *sync.Cond
	jobs    map[string]*Job
	order   []string
	seq     int
	running int
	closed  bool
	// Recovery activity since this process started: jobs restored from
	// the store and jobs re-enqueued to resume.
	jobsRecovered int
	jobsResumed   int
}

// kernelMetrics are the kernel's event-driven instruments; with a nil
// registry every one is a nil no-op.
type kernelMetrics struct {
	submitted               *obs.Counter
	done, failed, cancelled *obs.Counter
	evictions               *obs.Counter
	duration                *obs.Histogram
}

// NewKernel recovers the jobs in cfg.Store (an in-memory store when
// nil), registers the shared instruments and applies the retention
// caps. Call Start to launch the scheduler workers and Close to stop
// them and release the store.
func NewKernel(cfg KernelConfig, hooks KernelHooks) (*Kernel, error) {
	st := cfg.Store
	if st == nil {
		st = store.NewMem()
	}
	log := cfg.Logger
	if log == nil {
		log = obs.Discard()
	}
	ctx, stop := context.WithCancel(context.Background())
	k := &Kernel{
		cfg: cfg, hooks: hooks, store: st, now: time.Now, log: log,
		baseCtx: ctx, stop: stop, jobs: map[string]*Job{},
	}
	k.started = k.now()
	k.qcond = sync.NewCond(&k.mu)
	if err := k.recover(); err != nil {
		stop()
		return nil, err
	}
	k.registerMetrics(cfg.Metrics)
	k.retain(nil)
	return k, nil
}

// Start launches the cfg.Jobs scheduler workers.
func (k *Kernel) Start() {
	for range k.cfg.Jobs {
		k.wg.Add(1)
		go k.worker()
	}
}

// Go runs fn in a goroutine whose context Close cancels and whose end
// Close waits for.
func (k *Kernel) Go(fn func(ctx context.Context)) {
	k.wg.Add(1)
	go func() {
		defer k.wg.Done()
		fn(k.baseCtx)
	}()
}

// Context is cancelled when Close begins.
func (k *Kernel) Context() context.Context { return k.baseCtx }

func (k *Kernel) registerMetrics(reg *obs.Registry) {
	p := k.hooks.MetricPrefix
	finished := func(state State) *obs.Counter {
		return reg.Counter(p+"jobs_finished_total", "Jobs reaching a terminal state.", "state", string(state))
	}
	k.x = kernelMetrics{
		submitted: reg.Counter(p+"jobs_submitted_total", "Jobs accepted by Submit."),
		done:      finished(StateDone),
		failed:    finished(StateFailed),
		cancelled: finished(StateCancelled),
		evictions: reg.Counter(p+"retention_evictions_total", "Finished jobs evicted by the retention caps."),
		duration:  reg.Histogram(p+"job_duration_seconds", "Job wall time from start to terminal state.", obs.DurationBuckets),
	}
	if reg == nil {
		return
	}
	locked := func(v func() int) func() float64 {
		return func() float64 {
			k.mu.Lock()
			defer k.mu.Unlock()
			return float64(v())
		}
	}
	reg.GaugeFunc(k.hooks.QueueMetric+"_depth", "Jobs waiting in the bounded backlog.", locked(func() int { return len(k.backlog) }))
	reg.GaugeFunc(k.hooks.QueueMetric+"_capacity", "Configured backlog capacity.", func() float64 { return float64(k.cfg.Queue) })
	reg.GaugeFunc("uptime_seconds", "Seconds since this process started.", func() float64 {
		return k.now().Sub(k.started).Seconds()
	})
	reg.CounterFunc(p+"jobs_recovered_total", "Jobs restored from the data directory at startup.", locked(func() int { return k.jobsRecovered }))
	reg.CounterFunc(p+"jobs_resumed_total", "Recovered jobs re-enqueued to resume an interrupted run.", locked(func() int { return k.jobsResumed }))
}

// Job is one kernel job: its request, its result spool and the
// plumbing that lets any number of readers follow the spool while the
// run appends to it. ID, Req, Resume and ResumeFrom are immutable once
// the job is enqueued; the status is guarded by the job lock, which
// backends reach only through Status, Update, Append and AppendIf.
type Job struct {
	ID string
	// Req is zero for recovered jobs that will never run again.
	Req JobRequest
	// Resume marks a job crash recovery re-enqueued; ResumeFrom is the
	// spooled whole-line count its run restarts at.
	Resume     bool
	ResumeFrom int

	spool store.Job
	// retiring, guarded by the kernel lock, marks a job whose run has
	// ended but whose terminal state is not published yet; retention
	// counts it as finished.
	retiring bool

	mu        sync.Mutex
	cond      *sync.Cond
	status    JobStatus
	cancelRun context.CancelFunc // set while running
	cancelled bool               // cancel requested (before or during the run)
}

func newJob(id string, req JobRequest, st JobStatus, spool store.Job) *Job {
	j := &Job{ID: id, Req: req, status: st, spool: spool}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// Status returns a copy of the job's current status.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked copies the status, shard table included: a steal
// rewrites the table in place. Call with j.mu held.
func (j *Job) statusLocked() JobStatus {
	st := j.status
	st.Shards = append([]ShardStatus(nil), st.Shards...)
	return st
}

func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status.State.Terminal()
}

// Update runs fn on the live status under the job lock. When fn
// reports true the manifest is re-persisted (best effort: the spool
// stays authoritative) and followers are woken. fn may also touch
// backend state that only ever changes inside Update.
func (j *Job) Update(fn func(st *JobStatus) (persist bool)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if fn(&j.status) {
		j.persist() //nolint:errcheck // best effort: the next persist, or recovery, repairs a missed write
		j.cond.Broadcast()
	}
}

// Append spools one result line and wakes followers. A spool failure
// fails the run: results the service cannot retain must not silently
// vanish from late readers. The spool write happens outside the job
// lock (a job has one appender), so followers never wait on it.
func (j *Job) Append(line []byte) error {
	if err := j.spool.Append(line); err != nil {
		return fmt.Errorf("%w: %v", ErrStorage, err)
	}
	j.mu.Lock()
	j.status.Completed++
	j.cond.Broadcast()
	j.mu.Unlock()
	return nil
}

// AppendIf is Append behind an admission check. admit runs under the
// job lock on the live status and returns the backend counter that
// also counts the line, or nil to refuse it; the check, the spool
// append and both counter updates are one critical section, so a
// concurrent Update can never observe the line spooled but uncounted.
func (j *Job) AppendIf(line []byte, admit func(st *JobStatus) *int) (bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := admit(&j.status)
	if n == nil {
		return false, nil
	}
	if err := j.spool.Append(line); err != nil {
		return false, fmt.Errorf("%w: %v", ErrStorage, err)
	}
	*n++
	j.status.Completed++
	j.cond.Broadcast()
	return true, nil
}

// manifest is the durable form of a job: its wire status plus the
// original request, which a restarted process needs to resume an
// interrupted run. The request rides in the manifest, not in API
// responses — job listings stay lean.
type manifest struct {
	JobStatus
	Request *JobRequest `json:"request,omitempty"`
}

// persist writes the job's current status into its spool manifest, so
// a restarted process recovers the job where it stood. Call with j.mu
// held.
func (j *Job) persist() error {
	m := manifest{JobStatus: j.status}
	if j.Req.Devices > 0 {
		m.Request = &j.Req
	}
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if err := j.spool.WriteManifest(raw); err != nil {
		return fmt.Errorf("%w: %v", ErrStorage, err)
	}
	return nil
}

// start transitions queued -> running with its worker count; it
// reports false when the job was cancelled while still queued, in
// which case the run is skipped.
func (j *Job) start(cancel context.CancelFunc, workers int, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelled {
		return false
	}
	j.status.State = StateRunning
	j.status.Workers = workers
	j.status.Started = &now
	j.cancelRun = cancel
	j.persist() //nolint:errcheck // a failing manifest write must not kill a runnable job; the spool is authoritative
	j.cond.Broadcast()
	return true
}

// finish moves the job to a terminal state, persists the final
// manifest and wakes followers. The spool is flushed first — the
// result-boundary flush that makes a terminal manifest trustworthy —
// and WriteManifest implementations flush again themselves, so either
// layer alone upholds the ordering.
func (j *Job) finish(state State, err error, now time.Time) {
	j.spool.Flush() //nolint:errcheck // a failing flush surfaces via the manifest write or the next Read
	j.mu.Lock()
	j.status.State = state
	if err != nil {
		j.status.Error = err.Error()
	}
	j.status.Finished = &now
	j.cancelRun = nil
	j.persist() //nolint:errcheck // best effort: recovery marks a running manifest failed anyway
	j.cond.Broadcast()
	j.mu.Unlock()
}

// follow replays the job's result lines starting at line `offset` and
// then tails live appends, calling emit once per line, until the job
// reaches a terminal state or ctx is cancelled. It returns the job's
// terminal error message (empty for done jobs) and the follower's own
// error (context cancellation, a spool read failure or an emit
// failure), exactly one of which is meaningful.
func (j *Job) follow(ctx context.Context, offset int, emit func([]byte) error) (string, error) {
	// cond.Wait cannot watch a context, so a cancelled context
	// broadcasts the condition to unblock waiters.
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		j.cond.Broadcast()
	})
	defer stop()

	next := max(offset, 0)
	for {
		j.mu.Lock()
		for next >= j.status.Completed && !j.status.State.Terminal() && ctx.Err() == nil {
			j.cond.Wait()
		}
		n := j.status.Completed
		state, jobErr := j.status.State, j.status.Error
		j.mu.Unlock()

		// Lines below n are immutable, so the spool read happens
		// outside the lock and never stalls the appender.
		if n > next {
			// Distinguish the reader going away (emit failed — nothing
			// left to tell it) from the spool failing under a live
			// reader (wrapped in ErrStorage so the server can terminate
			// the stream with an explicit error line instead of
			// truncating it silently).
			var emitErr error
			err := j.spool.Read(next, n, func(line []byte) error {
				if e := emit(line); e != nil {
					emitErr = e
					return e
				}
				return nil
			})
			if emitErr != nil {
				return "", emitErr
			}
			if err != nil {
				return "", fmt.Errorf("%w: %v", ErrStorage, err)
			}
			next = n
		}
		if state.Terminal() {
			return jobErr, nil
		}
		if err := ctx.Err(); err != nil {
			return "", err
		}
	}
}

// recover rebuilds the job table from the store. Store IDs sort in
// creation order (zero-padded sequence numbers), and the sequence
// counter resumes past the highest recovered ID so new jobs never
// collide with stored ones. A job whose manifest says queued, running
// or resuming — the previous process died with it unfinished — is
// re-enqueued as resuming when resume is enabled and its manifest
// carries a request hooks.Resumable accepts: the spooled whole-line
// count (torn tail truncated) becomes the resume point and the run
// re-runs only the missing device suffix. Otherwise it recovers as
// failed with the spooled prefix still streamable.
func (k *Kernel) recover() error {
	ids, err := k.store.Jobs()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrStorage, err)
	}
	for _, id := range ids {
		spool, err := k.store.Open(id)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrStorage, err)
		}
		raw, err := spool.Manifest()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrStorage, err)
		}
		var mf manifest
		if err := json.Unmarshal(raw, &mf); err != nil {
			return fmt.Errorf("%w: manifest for %s: %v", ErrStorage, id, err)
		}
		st := mf.JobStatus
		st.ID = id // the file name is authoritative
		st.Recovered = true
		j := newJob(id, JobRequest{}, st, spool)
		k.jobsRecovered++
		interrupted := !st.State.Terminal()
		if interrupted {
			k.recoverInterrupted(j, mf.Request)
			j.mu.Lock()
			err := j.persist()
			j.mu.Unlock()
			if err != nil {
				return err
			}
		}
		// Terminal jobs keep the manifest's Completed (persisted after
		// the last append) and stay unindexed until somebody reads them,
		// so recovery costs O(jobs), not O(spooled bytes).
		switch {
		case j.Resume:
			k.log.Info("job recovered, resuming", "job", id, "resume_from", j.ResumeFrom, "devices", st.Devices)
		case interrupted:
			k.log.Warn("interrupted job recovered as failed", "job", id, "error", j.status.Error)
		default:
			k.log.Debug("job recovered", "job", id, "state", string(st.State))
		}
		var seq int
		if _, err := fmt.Sscanf(id, "job-%d", &seq); err == nil && seq > k.seq {
			k.seq = seq
		}
		k.jobs[id] = j
		k.order = append(k.order, id)
		if j.Resume {
			// Straight onto the backlog (recovery runs before the
			// scheduler workers start, and resumed jobs may exceed the
			// submission queue cap — they already held a slot once).
			k.backlog = append(k.backlog, j)
		}
	}
	return nil
}

// recoverInterrupted settles a job the previous process died with:
// resuming when it can, failed with its spooled prefix otherwise.
func (k *Kernel) recoverInterrupted(j *Job, req *JobRequest) {
	st := &j.status
	// Everything already spooled still streams; counting the spooled
	// lines here also truncates a torn final append.
	lines, err := j.spool.Lines()
	switch {
	case err != nil:
		// The spooled count is unknown (the index failed), so neither
		// resuming nor reporting a retained count is safe — a resume
		// from an assumed 0 would duplicate whatever prefix is actually
		// intact. Completed keeps the manifest's last persisted value.
		st.State = StateFailed
		st.Error = fmt.Sprintf("interrupted by %s restart; %s unreadable: %v", k.hooks.Restarter, k.hooks.Spool, err)
	case !k.cfg.NoResume && req != nil && req.Devices > 0 && k.hooks.Resumable(*req):
		// Re-enqueue: per-device seeds derive from (job seed, device
		// index), so the missing suffix [K, N) is exactly reproducible —
		// the resumed stream is byte-identical to a crash-free run.
		st.Completed = min(lines, st.Devices)
		j.Req = *req
		j.Resume, j.ResumeFrom = true, st.Completed
		if k.hooks.Plan != nil {
			k.hooks.Plan(j.Req, st)
		}
		st.State = StateResuming
		st.Resumed, st.ResumedFrom = true, st.Completed
		st.Error = ""
		st.Started, st.Finished = nil, nil
		k.jobsResumed++
		return
	default:
		st.Completed = min(lines, st.Devices)
		st.State = StateFailed
		st.Error = fmt.Sprintf("interrupted by %s restart; %d/%d device results retained", k.hooks.Restarter, st.Completed, st.Devices)
	}
	t := k.now()
	st.Finished = &t
}

func (k *Kernel) worker() {
	defer k.wg.Done()
	for {
		k.mu.Lock()
		for len(k.backlog) == 0 && !k.closed {
			k.qcond.Wait()
		}
		if k.closed {
			k.mu.Unlock()
			return
		}
		j := k.backlog[0]
		k.backlog = k.backlog[1:]
		queued := len(k.backlog)
		k.mu.Unlock()
		k.run(j, queued)
	}
}

// run executes one job: it claims the backend's resources, runs the
// job under a per-job context — capped by a deadline when timeout_sec
// is positive, whose expiry fails the job with a distinct error while
// its spooled prefix stays streamable — and ends it in the state the
// run's error maps onto.
func (k *Kernel) run(j *Job, queued int) {
	workers := 0
	if k.hooks.Claim != nil {
		var release func()
		workers, release = k.hooks.Claim(j, queued)
		defer release()
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if j.Req.TimeoutSec > 0 {
		ctx, cancel = context.WithTimeout(k.baseCtx, time.Duration(j.Req.TimeoutSec*float64(time.Second)))
	} else {
		ctx, cancel = context.WithCancel(k.baseCtx)
	}
	defer cancel()
	if !j.start(cancel, workers, k.now()) {
		// Cancelled while queued; Cancel already finished it.
		return
	}
	args := []any{"job", j.ID, "devices", j.Req.Devices}
	if workers > 0 {
		args = append(args, "workers", workers)
	}
	if n := len(j.Status().Shards); n > 0 {
		args = append(args, "shards", n)
	}
	if j.Resume {
		args = append(args, "resume_from", j.ResumeFrom)
	}
	k.log.Info("job started", args...)
	k.mu.Lock()
	k.running++
	k.mu.Unlock()
	defer func() {
		k.mu.Lock()
		k.running--
		k.mu.Unlock()
	}()

	err := k.hooks.Run(ctx, j)
	switch {
	case err == nil:
		k.finish(j, StateDone, nil)
	case errors.Is(err, context.DeadlineExceeded):
		// The distinct deadline error: ErrJobTimeout plus the configured
		// timeout, never conflated with a cancellation.
		k.finish(j, StateFailed, fmt.Errorf("%w (timeout_sec=%g)", ErrJobTimeout, j.Req.TimeoutSec))
	case errors.Is(err, context.Canceled):
		k.finish(j, StateCancelled, err)
	default:
		k.finish(j, StateFailed, err)
	}
	if err != nil && k.hooks.Abort != nil {
		k.hooks.Abort(j)
	}
	st := j.Status()
	switch st.State {
	case StateDone:
		k.x.done.Inc()
	case StateCancelled:
		k.x.cancelled.Inc()
	default:
		k.x.failed.Inc()
	}
	args = []any{"job", j.ID, "state", string(st.State), "completed", st.Completed, "devices", st.Devices}
	if st.Started != nil && st.Finished != nil {
		d := st.Finished.Sub(*st.Started).Seconds()
		k.x.duration.Observe(d)
		args = append(args, "duration_sec", d)
	}
	lvl := slog.LevelInfo
	if st.State == StateFailed {
		lvl = slog.LevelWarn
		args = append(args, "error", st.Error)
	}
	k.log.Log(k.baseCtx, lvl, "job finished", args...)
}

// finish ends a run: the retention caps are applied with j already
// counted as finished, and only then is j's terminal state published.
func (k *Kernel) finish(j *Job, state State, err error) {
	k.retain(j)
	j.finish(state, err, k.now())
}

// retain evicts the oldest finished jobs until the retention caps
// hold: at most RetainJobs finished jobs, at most RetainBytes of
// spooled results in total. finishing, when non-nil, is a job whose
// run just ended; it counts as finished although its terminal state is
// not published yet.
//
// The contract ("evicted means gone"): once a finishing job's terminal
// state is observable, every eviction it triggered has left both the
// job table and the store. That is why run publishes the terminal
// state only after this returns — a client that waits for a job to
// end and then lists jobs or the data directory never sees a job its
// end evicted. A finishing job may evict itself (its spool alone
// exceeding RetainBytes); it then leaves the table and the store
// before its terminal state reaches the followers already streaming
// it.
//
// Queued, resuming and running jobs are never evicted, so a job
// mid-resume can never lose the spooled prefix its missing suffix will
// append to; their bytes still count toward the total.
func (k *Kernel) retain(finishing *Job) {
	if k.cfg.RetainJobs <= 0 && k.cfg.RetainBytes <= 0 {
		return
	}
	var evict []string
	k.mu.Lock()
	if finishing != nil {
		finishing.retiring = true
	}
	var total int64
	finished := 0
	isDone := func(j *Job) bool { return j.retiring || j.terminal() }
	for _, id := range k.order {
		j := k.jobs[id]
		total += j.spool.Size()
		if isDone(j) {
			finished++
		}
	}
	for _, id := range k.order {
		over := (k.cfg.RetainJobs > 0 && finished > k.cfg.RetainJobs) ||
			(k.cfg.RetainBytes > 0 && total > k.cfg.RetainBytes)
		if !over {
			break
		}
		j := k.jobs[id]
		if !isDone(j) {
			continue
		}
		evict = append(evict, id)
		finished--
		total -= j.spool.Size()
		delete(k.jobs, id)
	}
	if len(evict) > 0 {
		k.x.evictions.Add(int64(len(evict)))
		kept := k.order[:0]
		for _, id := range k.order {
			if _, ok := k.jobs[id]; ok {
				kept = append(kept, id)
			}
		}
		k.order = kept
	}
	k.mu.Unlock()
	// Store deletion is I/O, so it runs outside the kernel lock: the IDs
	// are already invisible to lookups, so a racing Follow either got
	// its handle in time (and sees the spool close under it) or sees
	// ErrUnknownJob.
	for _, id := range evict {
		k.store.Remove(id) //nolint:errcheck // eviction is best effort; a leaked spool is re-listed and re-evicted on restart
		k.log.Debug("job evicted by retention", "job", id)
	}
}

// Submit validates a job request, assigns it an ID, creates its spool
// and enqueues it. It fails fast: a bad request never occupies a queue
// slot, and a full queue returns ErrQueueFull without blocking.
func (k *Kernel) Submit(req JobRequest) (JobStatus, error) {
	if req.Devices <= 0 {
		return JobStatus{}, fmt.Errorf("%w (got %d)", ErrBadDevices, req.Devices)
	}
	if req.FirstDevice < 0 {
		return JobStatus{}, fmt.Errorf("%w (got %d)", ErrBadFirstDevice, req.FirstDevice)
	}
	if req.TimeoutSec < 0 {
		return JobStatus{}, fmt.Errorf("%w (got %g)", ErrBadTimeout, req.TimeoutSec)
	}
	scheme, err := req.Resolve()
	if err != nil {
		return JobStatus{}, err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.closed {
		return JobStatus{}, ErrShuttingDown
	}
	if len(k.backlog) >= k.cfg.Queue {
		return JobStatus{}, fmt.Errorf("%w (capacity %d)", ErrQueueFull, k.cfg.Queue)
	}
	k.seq++
	id := fmt.Sprintf("job-%06d", k.seq)
	st := JobStatus{
		ID: id, State: StateQueued,
		Plan: req.Plan.Name, Scheme: scheme,
		Devices: req.Devices, FirstDevice: req.FirstDevice, Created: k.now(),
	}
	if k.hooks.Plan != nil {
		k.hooks.Plan(req, &st)
	}
	raw, err := json.Marshal(manifest{JobStatus: st, Request: &req})
	if err != nil {
		return JobStatus{}, err
	}
	// On failure the sequence number is burned, not rolled back: the
	// store cleans up its own partial files, and never reusing an ID
	// means a leftover foreign file cannot wedge every future Submit.
	spool, err := k.store.Create(id, raw)
	if err != nil {
		return JobStatus{}, fmt.Errorf("%w: %v", ErrStorage, err)
	}
	j := newJob(id, req, st, spool)
	// Snapshot before signalling: a worker may pick the job up (and
	// mutate its status under j.mu) the instant it is enqueued.
	accepted := j.Status()
	k.backlog = append(k.backlog, j)
	k.jobs[id] = j
	k.order = append(k.order, id)
	k.qcond.Signal()
	k.x.submitted.Inc()
	args := []any{"job", id, "devices", req.Devices, "plan", req.Plan.Name, "scheme", scheme}
	if n := len(st.Shards); n > 0 {
		args = append(args, "shards", n)
	}
	k.log.Info("job accepted", append(args, "queued", len(k.backlog))...)
	return accepted, nil
}

// lookup resolves a job ID.
func (k *Kernel) lookup(id string) (*Job, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	j, ok := k.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// Status returns a job's current state.
func (k *Kernel) Status(id string) (JobStatus, error) {
	j, err := k.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	st := j.Status()
	st.FillProgress(k.now())
	return st, nil
}

// Jobs lists every retained job in submission order, recovered jobs
// included.
func (k *Kernel) Jobs() []JobStatus {
	k.mu.Lock()
	jobs := make([]*Job, 0, len(k.order))
	for _, id := range k.order {
		jobs = append(jobs, k.jobs[id])
	}
	k.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	now := k.now()
	for i, j := range jobs {
		out[i] = j.Status()
		out[i].FillProgress(now)
	}
	return out
}

// Cancel stops a job: a queued job is pulled out of the backlog (its
// slot frees immediately) and finishes as cancelled, a running one has
// its context cancelled and its run unwinds. Cancelling a terminal job
// is a no-op. The returned status is the state right after the request
// took effect — a running job may still report "running" until its
// run unwinds.
func (k *Kernel) Cancel(id string) (JobStatus, error) {
	j, err := k.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	k.mu.Lock()
	for i, q := range k.backlog {
		if q == j {
			k.backlog = append(k.backlog[:i], k.backlog[i+1:]...)
			break
		}
	}
	k.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancelled = true
	switch j.status.State {
	case StateQueued, StateResuming:
		j.status.State = StateCancelled
		j.status.Error = context.Canceled.Error()
		t := k.now()
		j.status.Finished = &t
		j.persist() //nolint:errcheck // best effort: recovery marks a queued manifest failed anyway
		j.cond.Broadcast()
	case StateRunning:
		j.cancelRun()
	}
	return j.statusLocked(), nil
}

// Follow streams a job's spooled and live result lines starting at
// line `offset` (0 replays everything); see Backend.Follow for the
// contract.
func (k *Kernel) Follow(ctx context.Context, id string, offset int, emit func([]byte) error) (string, error) {
	j, err := k.lookup(id)
	if err != nil {
		return "", err
	}
	return j.follow(ctx, offset, emit)
}

// Health reports the kernel's share of a backend's health: capacity,
// load, recovery activity, uptime and resume capability.
func (k *Kernel) Health() Health {
	k.mu.Lock()
	defer k.mu.Unlock()
	h := Health{
		Jobs: k.cfg.Jobs, Queue: k.cfg.Queue,
		QueuedJobs: len(k.backlog), RunningJobs: k.running,
		JobsRecovered: k.jobsRecovered,
		JobsResumed:   k.jobsResumed,
		UptimeSec:     k.now().Sub(k.started).Seconds(),
		Version:       obs.Version(),
	}
	if !k.cfg.NoResume {
		h.Resume = true
		h.ResumeDelivery = "ordered"
	}
	if d, ok := k.store.(interface{ Durable() bool }); ok {
		h.Durable = d.Durable()
	}
	return h
}

// Close stops accepting submissions, cancels every running job and
// every goroutine started with Go, waits for them to unwind, marks the
// backlog cancelled (so every follower's stream terminates) and
// releases the store. It is idempotent.
func (k *Kernel) Close() {
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return
	}
	k.closed = true
	backlog := k.backlog
	k.backlog = nil
	k.qcond.Broadcast()
	k.mu.Unlock()
	k.stop()
	k.wg.Wait()
	for _, j := range backlog {
		j.mu.Lock()
		j.cancelled = true
		j.mu.Unlock()
		j.finish(StateCancelled, ErrShuttingDown, k.now())
	}
	k.store.Close() //nolint:errcheck // nothing left to do with a failing store at shutdown
}
