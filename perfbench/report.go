package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/service"
)

// metric is one named, unit-carrying number and the count behind it.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "%s\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "  %-34s %14.4f %-12s %s\n", m.name, m.value, m.unit, m.note)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// e2eMetrics are the end-to-end numbers of one untraced measured
// phase. gated lists those BENCHMARK.json bounds; the rest are printed
// for the reader only (a tail percentile needs 1,000 jobs, and a
// deterministic or zero-at-seed number cannot carry a bound).
func e2eMetrics(e *env, p *phase, setups []float64, ref *reference, v verdict) (gated, extra []metric) {
	devices := p.devices()
	var lat, first []float64
	for _, r := range p.recs {
		if !r.failed && r.lines > 0 {
			lat = append(lat, ms(r.latency()))
			first = append(first, ms(r.first-r.start))
		}
	}
	job := summarize(lat, 0.99)
	fl := summarize(first, 0.99)
	what := "jobs"
	if e.sh.top == levelFleet {
		what = fmt.Sprintf("windows of %d devices", e.sh.jobDevices)
	}
	alloc := float64(p.alloc)
	gated = []metric{
		{"devices_per_s", p.devicesPerSec(), "devices/s",
			fmt.Sprintf("n=%d devices in %.2f s measured (%.2f s idle-worker waits excluded)",
				devices, p.busy().Seconds(), p.idle.Seconds())},
		{"job_p50_ms", job.p50, "ms", job.countNote(what)},
		{"first_line_p50_ms", fl.p50, "ms", fl.countNote(what)},
		{"setup_s", medianOf(setups), "s", fmt.Sprintf("median of n=%d set-ups", len(setups))},
		{"alloc_kb_per_device", ratio(alloc/1024, float64(devices)), "KiB/device",
			fmt.Sprintf("process-wide, n=%d devices", devices)},
		{"live_heap_mb", float64(p.heap) / (1 << 20), "MiB", "after forced GC once timing ended"},
		{"sim_located_ratio", ratio(float64(ref.located), float64(ref.detectable)), "ratio",
			fmt.Sprintf("n=%d detectable faults over %d devices", ref.detectable, ref.devices)},
	}
	if job.hasTail {
		extra = append(extra, metric{"job_p99_ms", job.tail, "ms", job.tailNote(what)})
	} else {
		extra = append(extra, metric{"job_p99_ms", math.NaN(), "ms",
			fmt.Sprintf("not reported: %s, fewer than %d", job.tailNote(what), minBeyond)})
	}
	extra = append(extra,
		metric{"failed_ratio", ratio(float64(v.failed), float64(v.attempted)), "ratio",
			fmt.Sprintf("%d failed of %d attempted (%d output mismatches)", v.failed, v.attempted, v.mismatched)},
		metric{"sim_cycles_per_device", ratio(float64(ref.cycles), float64(ref.devices)), "cycles",
			fmt.Sprintf("n=%d devices, simulated", ref.devices)},
	)
	return gated, extra
}

// usPerDevice is a phase's wall-clock microseconds per delivered device.
func usPerDevice(p *phase) float64 { return ratio(1e6, p.devicesPerSec()) }

// layerMetrics derives the per-layer numbers of a traced run: untraced
// is the top level without tracing, levels[l] the traced phase of
// level l (present for every level up to the workload's top).
func layerMetrics(e *env, untraced *phase, levels map[level]*phase, ref *reference) ([]metric, budget) {
	top := e.sh.top
	p1 := levels[levelFleet]
	fs := &p1.fs
	d1 := float64(p1.devices())
	batches := fs.bank.n.Load()
	lanes := fs.lanes.Load()
	out := []metric{
		{"fleet.build_us_per_device", fs.build.usPerCall(), "us", fmt.Sprintf("n=%d builds timed between lane loads", fs.build.n.Load())},
		{"fleet.load_us_per_device", fs.load.usPerCall(), "us", fmt.Sprintf("n=%d lane loads", fs.load.n.Load())},
		{"fleet.bank_us_per_batch", fs.bank.usPerCall(), "us", fmt.Sprintf("n=%d batches", batches)},
		{"fleet.bank_us_per_device", fs.bank.usPer(lanes), "us", fmt.Sprintf("n=%d occupied lanes", lanes)},
		{"fleet.batches", float64(batches), "count", "bank passes in the traced fleet phase"},
		{"fleet.lane_fill", ratio(float64(lanes), float64(batches*64)), "ratio", "occupied lanes / 64 per batch"},
		{"fleet.scalar_devices", float64(fs.scalar.n.Load()), "count", "devices run on the per-device path"},
		{"fleet.scalar_us_per_device", fs.scalar.usPerCall(), "us", fmt.Sprintf("n=%d", fs.scalar.n.Load())},
		{"fleet.wait_us_per_device", p1.ls.wait.usPer(int64(d1)), "us", fmt.Sprintf("consumer blocked in the iterator, n=%.0f devices", d1)},
	}
	var zero phase
	at := func(l level) *phase {
		if p := levels[l]; p != nil {
			return p
		}
		return &zero
	}
	enc, sp := at(levelEncode), at(levelSpool)
	out = append(out,
		metric{"encode.us_per_device", enc.ls.encode.usPerCall(), "us", fmt.Sprintf("n=%d encodes", enc.ls.encode.n.Load())},
		metric{"encode.bytes_per_device", ratio(float64(enc.ls.encodeBytes.Load()), float64(enc.ls.encode.n.Load())), "bytes", "NDJSON line, newline excluded"},
		metric{"spool.append_us_per_line", sp.ls.appendLine.usPerCall(), "us", fmt.Sprintf("n=%d appends", sp.ls.appendLine.n.Load())},
		metric{"spool.flush_ms", sp.ls.flush.usPerCall() / 1e3, "ms", fmt.Sprintf("n=%d flushes", sp.ls.flush.n.Load())},
		metric{"spool.read_us_per_line", sp.ls.read.usPer(sp.ls.readLines.Load()), "us", fmt.Sprintf("n=%d lines read back", sp.ls.readLines.Load())},
	)
	out = append(out, managerMetrics(at(levelManager), at(levelHTTP))...)
	out = append(out, httpMetrics(at(levelManager), at(levelHTTP))...)
	out = append(out, coordMetrics(at(levelHTTP), at(levelCoord))...)

	ud := float64(untraced.devices())
	traced := levels[top]
	out = append(out,
		metric{"go.mallocs_per_device", ratio(float64(untraced.mallocs), ud), "count", fmt.Sprintf("untraced phase, n=%.0f devices", ud)},
		metric{"go.gc_cycles", float64(untraced.gcs), "count", fmt.Sprintf("untraced phase of %.2f s", untraced.busy().Seconds())},
		metric{"go.gc_pause_ms", float64(untraced.pauseNs) / 1e6, "ms", "untraced phase, total"},
		metric{"trace.devices_per_s_untraced", untraced.devicesPerSec(), "devices/s", fmt.Sprintf("n=%.0f devices", ud)},
		metric{"trace.devices_per_s_traced", traced.devicesPerSec(), "devices/s", fmt.Sprintf("n=%d devices", traced.devices())},
		metric{"trace.overhead_ratio", ratio(untraced.devicesPerSec(), traced.devicesPerSec()), "ratio", "untraced / traced devices_per_s"},
	)

	b := budget{
		title: fmt.Sprintf("%s (wall us per delivered device, traced run; fleet rows are worker busy time / %d concurrent workers)",
			e.sh.name, e.nproc),
		e2e: usPerDevice(traced),
	}
	conc := d1 * float64(e.nproc)
	perDev := func(a *acc) float64 { return ratio(float64(a.ns.Load())/1e3, conc) }
	b.rows = append(b.rows,
		budgetRow{"fleet: device build (mean gap x lanes)", ratio(fs.build.usPerCall()*float64(lanes), conc)},
		budgetRow{"fleet: lane load", perDev(&fs.load)},
		budgetRow{"fleet: bank pass", perDev(&fs.bank)},
		budgetRow{"fleet: scalar path", perDev(&fs.scalar)},
	)
	for l := levelEncode; l <= top; l++ {
		b.rows = append(b.rows, budgetRow{
			fmt.Sprintf("%s (level %d minus level %d)", l, l, l-1),
			usPerDevice(levels[l]) - usPerDevice(levels[l-1]),
		})
	}
	b.overlap = []budgetRow{{"fleet: delivery wait (consumer blocked)", p1.ls.wait.usPer(int64(d1))}}
	out = append(out,
		metric{"budget.e2e_us_per_device", b.e2e, "us", "traced top level"},
		metric{"budget.residual_us_per_device", b.residual(), "us", "end to end minus every budget row"},
		metric{"sim_cycles_per_device", ratio(float64(ref.cycles), float64(ref.devices)), "cycles", fmt.Sprintf("n=%d devices, simulated", ref.devices)},
	)
	return out, b
}

// statusMs collects a per-job duration from served JobStatus values.
func statusMs(ss []served, f func(s served) (time.Duration, bool)) []float64 {
	var xs []float64
	for _, s := range ss {
		if d, ok := f(s); ok {
			xs = append(xs, ms(d))
		}
	}
	return xs
}

func started(st service.JobStatus) bool { return st.Started != nil && st.Finished != nil }

func managerMetrics(mgr, web *phase) []metric {
	queue := statusMs(web.served, func(s served) (time.Duration, bool) {
		return s.status.Started.Sub(s.status.Created), started(s.status)
	})
	run := statusMs(web.served, func(s served) (time.Duration, bool) {
		return s.status.Finished.Sub(*s.status.Started), started(s.status)
	})
	drain := statusMs(web.served, func(s served) (time.Duration, bool) {
		return s.end.Sub(*s.status.Finished), started(s.status)
	})
	var granted []float64
	for _, s := range web.served {
		granted = append(granted, float64(s.status.Workers))
	}
	q, rn, dr := summarize(queue, 0.99), summarize(run, 0.99), summarize(drain, 0.99)
	return []metric{
		{"manager.submit_us", mgr.ls.submit.usPerCall(), "us", fmt.Sprintf("mean, n=%d Manager.Submit calls", mgr.ls.submit.n.Load())},
		{"manager.queue_ms", nz(q.p50), "ms", "median created->started, " + q.countNote("jobs")},
		{"manager.run_ms", nz(rn.p50), "ms", "median started->finished, " + rn.countNote("jobs")},
		{"manager.drain_ms", nz(dr.p50), "ms", "median finished->client stream end, " + dr.countNote("jobs")},
		{"manager.workers_granted", nz(mean(granted)), "count", fmt.Sprintf("mean, n=%d jobs", len(granted))},
	}
}

func httpMetrics(mgr, web *phase) []metric {
	var bytes int64
	for _, r := range web.recs {
		bytes += r.bytes
	}
	overhead := 0.0
	if web.devices() > 0 && mgr.devices() > 0 {
		overhead = usPerDevice(web) - usPerDevice(mgr)
	}
	return []metric{
		{"http.submit_ms", web.ls.httpSubmit.usPerCall() / 1e3, "ms", fmt.Sprintf("mean, n=%d client.Submit calls", web.ls.httpSubmit.n.Load())},
		{"http.overhead_us_per_device", overhead, "us", "http level minus manager level, wall per device"},
		{"http.bytes_per_device", ratio(float64(bytes), float64(web.devices())), "bytes", fmt.Sprintf("n=%d devices received", web.devices())},
	}
}

func coordMetrics(web, co *phase) []metric {
	var shards, steals, redispatches, dispatch, workerRun, tail []float64
	minShards, maxShards := math.Inf(1), math.Inf(-1)
	for _, r := range co.served {
		n := float64(len(r.status.Shards))
		shards = append(shards, n)
		minShards, maxShards = math.Min(minShards, n), math.Max(maxShards, n)
		steals = append(steals, float64(r.status.Steals))
		re := 0
		for _, sh := range r.status.Shards {
			re += sh.Redispatches
		}
		redispatches = append(redispatches, float64(re))
		if !started(r.status) {
			continue
		}
		var lastWorker time.Time
		for _, ws := range r.shards {
			dispatch = append(dispatch, ms(ws.Created.Sub(*r.status.Started)))
			if started(ws) {
				workerRun = append(workerRun, ms(ws.Finished.Sub(*ws.Started)))
				if ws.Finished.After(lastWorker) {
					lastWorker = *ws.Finished
				}
			}
		}
		if !lastWorker.IsZero() {
			tail = append(tail, ms(r.status.Finished.Sub(lastWorker)))
		}
	}
	overhead := 0.0
	if co.devices() > 0 && web.devices() > 0 {
		overhead = usPerDevice(co) - usPerDevice(web)
	}
	spread := "no coordinated jobs"
	if len(shards) > 0 {
		spread = fmt.Sprintf("mean over n=%d jobs, min %.0f, max %.0f", len(shards), minShards, maxShards)
	}
	d, w, t := summarize(dispatch, 0.99), summarize(workerRun, 0.99), summarize(tail, 0.99)
	return []metric{
		{"coord.shards_per_job", nz(mean(shards)), "count", spread},
		{"coord.steals", sum(steals), "count", "total"},
		{"coord.redispatches", sum(redispatches), "count", "total"},
		{"coord.dispatch_ms", nz(d.p50), "ms", "median coord started->worker job created, " + d.countNote("shards")},
		{"coord.worker_run_ms", nz(w.p50), "ms", "median worker job started->finished, " + w.countNote("shards")},
		{"coord.merge_tail_ms", nz(t.p50), "ms", "median last worker finished->coord finished, " + t.countNote("jobs")},
		{"coord.overhead_us_per_device", overhead, "us", "coord level minus http level, wall per device"},
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// nz maps "no samples" to 0: the layer is not on this workload's path.
func nz(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
