package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/memtest"
	"repro/service"
	"repro/service/client"
	"repro/service/store"
)

// level is one layer of the stack a job can be run through. Each level
// runs everything the level below it runs plus one more layer, so a
// layer's cost is the per-device time difference between adjacent
// levels running the same job sequence.
type level int

const (
	levelFleet   level = iota + 1 // in-process Session.RunFleetRange
	levelEncode                   // + JSON encoding of each DeviceResult
	levelSpool                    // + store.Job Append, Flush and Read
	levelManager                  // + service.Manager Submit and Follow
	levelHTTP                     // + HTTP through service.Server and service/client
	levelCoord                    // + memtest-coord over two memtestd workers
)

func (l level) String() string {
	return [...]string{"?", "fleet", "encode", "spool", "manager", "http", "coord"}[l]
}

// shape is one workload: how many devices a job (or fleet window)
// covers, how many clients drive it, and the highest level it reaches.
// Why each workload exists is recorded in BENCHMARK.json and README.md.
type shape struct {
	name       string
	jobDevices int
	clients    int // 0 means one per CPU
	top        level
	disk       bool // Disk spools (else Mem)
	warmJobs   int  // warm-up jobs inside set-up
	minJobs    int  // fewest jobs one measured phase may end with
}

var shapes = []shape{
	{name: "fleet-hetero", jobDevices: 1024, clients: 1, top: levelFleet, warmJobs: 4, minJobs: 8},
	{name: "service-small-jobs", jobDevices: 8, top: levelHTTP, warmJobs: 64, minJobs: 64},
	{name: "coord-sharded", jobDevices: 2048, clients: 1, top: levelCoord, disk: true, warmJobs: 2, minJobs: 3},
}

// retainJobs bounds every daemon's finished-job table, so the spools of
// a long run do not grow without limit.
const retainJobs = 16

// probeInterval is the coordinator's worker re-probe cadence.
const probeInterval = 20 * time.Millisecond

// warmBase is the first job index of warm-up jobs: far past any
// measured job, so set-up never runs a device window a measured phase
// runs.
const warmBase = 1 << 20

// env is one workload's program under test plus its request generator.
type env struct {
	sh      shape
	plan    memtest.Plan
	seed    int64 // request seed, derived from the benchmark seed
	nproc   int
	clients int
	workers int // fleet workers of one in-process job
	engine  memtest.Engine
	st      *stack
	// session is fleet-hetero's untraced session, built at set-up and
	// reused by every window.
	session *memtest.Session
}

// jobRun is one job (or fleet window) as the client saw it, while it
// runs; the phase keeps it as a compact jobRecord.
type jobRun struct {
	k     int
	start time.Time // submit, or RunFleetRange call
	first time.Time // first result line (or device) received
	last  time.Time // last result line received
	end   time.Time // stream closed
	lines int
	bytes int64 // result bytes received, newlines included
	// digest fingerprints the received results: the NDJSON lines from
	// the encode level up, the decoded DeviceResults at the fleet level.
	digest uint64
	err    error
	status service.JobStatus
	shards []service.JobStatus // the worker jobs behind a coord job
}

// jobRecord is a finished job as a phase keeps it. Times are offsets
// from the phase's epoch, and the type holds no pointers, so records can
// live outside the Go heap.
type jobRecord struct {
	k                  int
	lines              int
	bytes              int64
	digest             uint64
	start, first, last time.Duration
	failed             bool
}

func (r *jobRecord) latency() time.Duration { return r.last - r.start }

// served is the JobStatus a daemon served for one finished job of a
// traced phase, with the worker jobs behind a coordinated one.
type served struct {
	end    time.Time // the client's stream closed
	status service.JobStatus
	shards []service.JobStatus
}

// phase is the measured closed-loop runs at one level. A phase may run
// in several rounds; its jobs continue one sequence across rounds and
// its counters accumulate.
type phase struct {
	lvl  level
	tr   *tracer
	eng  *timedEngine     // fleet-hetero's traced decorator
	sess *memtest.Session // fleet-hetero's session for this phase
	fs   fleetStats
	ls   layerStats
	next int // next job index

	epoch time.Time // jobRecord times are offsets from it

	mu sync.Mutex
	// recs live outside the Go heap (see growRecords), so the
	// benchmark's bookkeeping does not change when the program under
	// test collects garbage.
	recs     []jobRecord
	served   []served // traced phases only
	failures []string // the first few failed jobs' errors

	wall, idle time.Duration
	// Process-wide runtime counters accumulated over the rounds.
	alloc, mallocs, pauseNs uint64
	gcs                     uint32
	// heap is the live heap after a forced GC once the last round
	// ended.
	heap uint64
}

// initialRecords is the record capacity a phase maps first: ample for
// a minute of any workload.
const initialRecords = 1 << 16

// growRecords moves p.recs to a fresh anonymous mapping twice as large.
// The mapping is not Go heap, so neither its size nor its growth moves
// the garbage collector's pacing; jobRecord holds no pointers, so the
// collector need not see it. Untouched pages cost no memory. Call with
// p.mu held.
func (p *phase) growRecords() error {
	n := max(initialRecords, 2*cap(p.recs))
	mem, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(jobRecord{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("map job records: %w", err)
	}
	recs := unsafe.Slice((*jobRecord)(unsafe.Pointer(&mem[0])), n)[:len(p.recs)]
	copy(recs, p.recs)
	if old := p.recs[:cap(p.recs)]; len(old) > 0 {
		//nolint:errcheck // the old mapping is only read; failing to unmap it leaks address space
		syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&old[0])), len(old)*int(unsafe.Sizeof(jobRecord{}))))
	}
	p.recs = recs
	return nil
}

// keep stores a finished job; it fails only when no memory can be
// mapped for the record.
func (p *phase) keep(j *jobRun) error {
	at := func(t time.Time) time.Duration {
		if t.IsZero() {
			return 0
		}
		return t.Sub(p.epoch)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.recs) == cap(p.recs) {
		if err := p.growRecords(); err != nil {
			return err
		}
	}
	p.recs = append(p.recs, jobRecord{
		k: j.k, lines: j.lines, bytes: j.bytes, digest: j.digest,
		start: at(j.start), first: at(j.first), last: at(j.last), failed: j.err != nil,
	})
	if j.err != nil && len(p.failures) < 5 {
		p.failures = append(p.failures, fmt.Sprintf("%s job %d: %v", p.lvl, j.k, j.err))
	}
	if p.tr != nil && j.status.ID != "" {
		p.served = append(p.served, served{end: j.end, status: j.status, shards: j.shards})
	}
	return nil
}

// layerStats times the calls the benchmark makes into each layer.
type layerStats struct {
	wait        acc // consumer blocked in the fleet iterator
	encode      acc
	encodeBytes atomic.Int64
	appendLine  acc
	flush       acc
	read        acc
	readLines   atomic.Int64
	submit      acc // Manager.Submit
	httpSubmit  acc // client.Submit
}

// busy is the phase's measured time: wall time minus the waits for
// idle workers the coordinated loop makes between jobs.
func (p *phase) busy() time.Duration { return p.wall - p.idle }

// devices counts the device results delivered by jobs that did not
// fail.
func (p *phase) devices() int {
	n := 0
	for _, r := range p.recs {
		if !r.failed {
			n += r.lines
		}
	}
	return n
}

func (p *phase) devicesPerSec() float64 {
	return ratio(float64(p.devices()), p.busy().Seconds())
}

func (e *env) newSession(eng memtest.Engine, workers int) (*memtest.Session, error) {
	return memtest.New(e.plan, memtest.WithEngine(eng), memtest.WithSeed(e.seed), memtest.WithDRF(),
		memtest.WithWorkers(workers), memtest.WithFleetDelivery(memtest.Ordered))
}

// request is job k's submission: devices [k*J, (k+1)*J) of one fleet.
func (e *env) request(k int) service.JobRequest {
	return service.JobRequest{
		Plan: e.plan, Devices: e.sh.jobDevices, FirstDevice: k * e.sh.jobDevices,
		DRF: true, Seed: e.seed, Delivery: "ordered",
	}
}

// newPhase prepares level lvl's phase; its jobs are numbered from base.
func (e *env) newPhase(lvl level, traced bool, base int) (*phase, error) {
	p := &phase{lvl: lvl, next: base, epoch: time.Now()}
	if traced {
		p.tr = newTracer()
	}
	if e.sh.top == levelFleet {
		p.sess = e.session
		if traced {
			var err error
			if p.eng, err = newTimedEngine(e.engine, &p.fs, p.tr); err != nil {
				return nil, err
			}
			if p.sess, err = e.newSession(p.eng, e.workers); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// runPhase drives p's level in a closed loop: each client starts its
// next job when its last one has drained, until dur has passed and at
// least minJobs jobs have ended.
func (e *env) runPhase(ctx context.Context, p *phase, dur time.Duration, minJobs int) error {
	waits := e.sh.top == levelCoord && p.lvl >= levelManager
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var next, done, idle atomic.Int64
	next.Store(int64(p.next))
	var keepErr error
	var keepOnce sync.Once
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if done.Load() >= int64(minJobs) && !time.Now().Before(deadline) {
					return
				}
				k := int(next.Add(1) - 1)
				if waits {
					t := time.Now()
					e.waitIdle(ctx, p.lvl)
					idle.Add(int64(time.Since(t)))
				}
				j := e.job(ctx, p, k)
				if err := p.keep(&j); err != nil {
					keepOnce.Do(func() { keepErr = err })
					return
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	p.wall += time.Since(start)
	p.idle += time.Duration(idle.Load())
	p.next = int(next.Load())
	runtime.ReadMemStats(&m1)
	p.alloc += m1.TotalAlloc - m0.TotalAlloc
	p.mallocs += m1.Mallocs - m0.Mallocs
	p.pauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	p.gcs += m1.NumGC - m0.NumGC
	// Two cycles: the first moves pooled objects to the victim cache,
	// the second frees them.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.heap = m1.HeapAlloc
	if keepErr != nil {
		return keepErr
	}
	return ctx.Err()
}

func (e *env) job(ctx context.Context, p *phase, k int) jobRun {
	switch {
	case p.lvl <= levelSpool:
		return e.inProcessJob(ctx, p, k)
	case p.lvl == levelManager:
		return e.managerJob(ctx, p, k)
	default:
		return e.httpJob(ctx, p, k)
	}
}

var newline = []byte("\n")

// inProcessJob runs job k's device window through RunFleetRange and,
// from the encode level up, encodes each result exactly as memtestd
// does; from the spool level up it spools the lines and reads them back.
func (e *env) inProcessJob(ctx context.Context, p *phase, k int) (rec jobRun) {
	rec = jobRun{k: k, start: time.Now()}
	op, runSpan := p.tr.id(), p.tr.id()
	defer func() { p.tr.add(op, op, 0, "job", rec.start, time.Now()) }()
	sess := p.sess
	switch {
	case sess != nil && p.eng != nil:
		p.eng.setOp(op, runSpan)
	case sess == nil:
		var eng memtest.Engine = e.engine
		if p.tr != nil {
			te, err := newTimedEngine(e.engine, &p.fs, p.tr)
			if err != nil {
				rec.err = err
				return rec
			}
			te.setOp(op, runSpan)
			eng = te
		}
		var err error
		if sess, err = e.newSession(eng, e.workers); err != nil {
			rec.err = err
			return rec
		}
	}
	var spool store.Job
	if p.lvl >= levelSpool {
		id := fmt.Sprintf("job-%09d", k)
		var err error
		if spool, err = e.st.spool.Create(id, []byte("{}")); err != nil {
			rec.err = err
			return rec
		}
		defer e.st.spool.Remove(id) //nolint:errcheck // clean-up only; a leak shows as disk use, not as a result
	}
	var d digest
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	lo := k * e.sh.jobDevices
	runStart := time.Now()
	mark := runStart
	for dr, err := range sess.RunFleetRange(ctx, lo, lo+e.sh.jobDevices) {
		got := time.Now()
		p.ls.wait.add(got.Sub(mark))
		if err != nil {
			rec.err = err
			break
		}
		if rec.lines == 0 {
			rec.first = got
		}
		rec.lines++
		if p.lvl == levelFleet {
			d.device(dr)
			mark = time.Now()
			continue
		}
		buf.Reset()
		if err := enc.Encode(dr); err != nil {
			rec.err = err
			break
		}
		line := bytes.TrimSuffix(buf.Bytes(), newline)
		t := time.Now()
		p.ls.encode.add(t.Sub(got))
		p.ls.encodeBytes.Add(int64(len(line)))
		if spool == nil {
			d.bytes(line)
		} else {
			if err := spool.Append(line); err != nil {
				rec.err = err
				break
			}
			p.ls.appendLine.add(time.Since(t))
		}
		mark = time.Now()
	}
	rec.last = time.Now()
	p.tr.add(op, runSpan, op, "fleet.run", runStart, rec.last)
	if spool != nil && rec.err == nil {
		rec.err = e.readBack(p, op, spool, &rec, &d)
		rec.last = time.Now()
	}
	rec.end = rec.last
	rec.digest = d.h
	return rec
}

// readBack flushes a spooled job and reads every line back, as a
// follower does; the digest covers the lines read.
func (e *env) readBack(p *phase, op int64, spool store.Job, rec *jobRun, d *digest) error {
	t0 := time.Now()
	if err := spool.Flush(); err != nil {
		return err
	}
	t1 := time.Now()
	p.ls.flush.add(t1.Sub(t0))
	p.tr.add(op, 0, op, "spool.flush", t0, t1)
	n := 0
	err := spool.Read(0, rec.lines, func(line []byte) error {
		d.bytes(line)
		n++
		return nil
	})
	t2 := time.Now()
	p.ls.read.add(t2.Sub(t1))
	p.ls.readLines.Add(int64(n))
	p.tr.add(op, 0, op, "spool.read", t1, t2)
	rec.lines = n
	return err
}

// line records one received result line.
func (r *jobRun) line(d *digest, line []byte) {
	now := time.Now()
	if r.lines == 0 {
		r.first = now
	}
	r.last = now
	r.lines++
	r.bytes += int64(len(line)) + 1
	d.bytes(line)
}

// managerJob submits job k to the in-process Manager and follows it.
func (e *env) managerJob(ctx context.Context, p *phase, k int) (rec jobRun) {
	m := e.st.single.mgr
	rec = jobRun{k: k, start: time.Now()}
	op := p.tr.id()
	defer func() { p.tr.add(op, op, 0, "job", rec.start, rec.end) }()
	st, err := m.Submit(e.request(k))
	t := time.Now()
	p.ls.submit.add(t.Sub(rec.start))
	p.tr.add(op, 0, op, "manager.submit", rec.start, t)
	if err != nil {
		rec.err, rec.end = err, t
		return rec
	}
	var d digest
	jobErr, err := m.Follow(ctx, st.ID, 0, func(line []byte) error {
		rec.line(&d, line)
		return nil
	})
	rec.end = time.Now()
	p.tr.add(op, 0, op, "manager.follow", t, rec.end)
	rec.digest = d.h
	switch {
	case err != nil:
		rec.err = err
	case jobErr != "":
		rec.err = fmt.Errorf("job %s: %s", st.ID, jobErr)
	}
	if p.tr != nil {
		rec.status, _ = m.Status(st.ID)
		p.statusSpans(op, op, "manager", rec.status)
	}
	return rec
}

// httpJob submits job k over HTTP, to memtestd or to memtest-coord by
// level, and drains its result stream with client.RawResults.
func (e *env) httpJob(ctx context.Context, p *phase, k int) (rec jobRun) {
	var cli *client.Client
	if p.lvl == levelCoord {
		cli = e.st.coord.cli
	} else {
		cli = e.st.single.cli
	}
	rec = jobRun{k: k, start: time.Now()}
	op := p.tr.id()
	defer func() { p.tr.add(op, op, 0, "job", rec.start, rec.end) }()
	st, err := cli.Submit(ctx, e.request(k))
	t := time.Now()
	p.ls.httpSubmit.add(t.Sub(rec.start))
	p.tr.add(op, 0, op, "http.submit", rec.start, t)
	if err != nil {
		rec.err, rec.end = err, t
		return rec
	}
	var d digest
	for line, err := range cli.RawResults(ctx, st.ID) {
		if err != nil {
			rec.err = err
			break
		}
		rec.line(&d, line)
	}
	rec.end = time.Now()
	p.tr.add(op, 0, op, "http.results", t, rec.end)
	rec.digest = d.h
	if p.tr != nil {
		e.fetchStatus(p, op, st.ID, &rec)
	}
	return rec
}

// fetchStatus reads the JobStatus the daemon serves for a finished job
// and, behind a coordinator, the status of every shard's worker job.
func (e *env) fetchStatus(p *phase, op int64, id string, rec *jobRun) {
	if p.lvl != levelCoord {
		rec.status, _ = e.st.single.mgr.Status(id)
		p.statusSpans(op, op, "manager", rec.status)
		return
	}
	cs := e.st.coord
	rec.status, _ = cs.co.Status(id)
	run := p.statusSpans(op, op, "coord", rec.status)
	for _, sh := range rec.status.Shards {
		w := cs.byURL[sh.Worker]
		if w == nil || sh.JobID == "" {
			continue
		}
		ws, err := w.mgr.Status(sh.JobID)
		if err != nil {
			continue
		}
		rec.shards = append(rec.shards, ws)
		p.statusSpans(op, run, "worker", ws)
	}
}

// statusSpans turns a JobStatus's lifecycle timestamps into queue and
// run spans under parent, returning the run span's ID.
func (p *phase) statusSpans(op, parent int64, prefix string, st service.JobStatus) int64 {
	if st.Started == nil || p.tr == nil {
		return 0
	}
	p.tr.add(op, 0, parent, prefix+".queue", st.Created, *st.Started)
	run := p.tr.id()
	if st.Finished != nil {
		p.tr.add(op, run, parent, prefix+".run", *st.Started, *st.Finished)
	}
	return run
}

// waitIdle blocks, outside the timed window, until the daemons behind
// lvl report every fleet worker idle: for memtest-coord that is the
// coordinator's cached worker view, which sizes the next job's shards.
func (e *env) waitIdle(ctx context.Context, lvl level) {
	deadline := time.Now().Add(5 * time.Second)
	for ctx.Err() == nil && time.Now().Before(deadline) {
		if e.idle(lvl) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func (e *env) idle(lvl level) bool {
	quiet := func(h service.Health) bool {
		return h.RunningJobs == 0 && h.QueuedJobs == 0 && h.IdleWorkers == h.FleetWorkers
	}
	if lvl != levelCoord {
		return quiet(e.st.single.mgr.Health())
	}
	cs := e.st.coord
	if cs.co.Health().IdleWorkers < len(cs.workers) {
		return false
	}
	for _, w := range cs.workers {
		if !quiet(w.mgr.Health()) {
			return false
		}
	}
	return true
}
