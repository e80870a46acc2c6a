// Command perfbench is the repository's benchmark. It measures how fast
// the simulator diagnoses fleets of heterogeneous e-SRAM devices, end to
// end and layer by layer, on three workloads:
//
//   - fleet-hetero: in-process Session.RunFleetRange over long device
//     windows, every bank batch full.
//   - service-small-jobs: memtestd over loopback HTTP, one client per
//     CPU each submitting 8-device jobs and draining them.
//   - coord-sharded: memtest-coord over two in-process memtestd workers
//     with Disk spools, one large job at a time.
//
// Every output is checked against a reference computed in-process after
// timing; a mismatch counts as a failed operation.
//
// Usage (the wrapper builds the binary in the checkout first):
//
//	bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it runs the workload at every stack level with spans around the calls
// into each layer, and reports the per-layer metrics and a per-device
// budget table. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/memtest"
)

// setupRepeats is how many times a run sets the program up; setup_s is
// the median.
const setupRepeats = 5

// runLimit bounds one workload's run, set-up and checks included.
const runLimit = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed every request derives from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for temp spools and span traces")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	if o.workload != "all" && findShape(o.workload) == nil {
		return o, fmt.Errorf("unknown --workload %q", o.workload)
	}
	return o, nil
}

func findShape(name string) *shape {
	for i := range shapes {
		if shapes[i].name == name {
			return &shapes[i]
		}
	}
	return nil
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, o, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(ctx context.Context, o options, stdout io.Writer) (*result, error) {
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	fmt.Fprintf(w, "perfbench seed=%d seconds=%g trace=%v host: %s\n", o.seed, o.seconds, o.trace, hostInfo())
	var todo []shape
	if o.workload == "all" {
		todo = shapes
	} else {
		todo = []shape{*findShape(o.workload)}
	}
	total := &result{Correct: true, Metrics: map[string]outMetric{}}
	for _, sh := range todo {
		wctx, cancel := context.WithTimeout(ctx, runLimit)
		res, err := runWorkload(wctx, o, sh, w)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sh.name, err)
		}
		if len(todo) == 1 {
			return res, nil
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[sh.name+"/"+k] = v
		}
	}
	return total, nil
}

// hostInfo is the run's host metadata line.
func hostInfo() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), cpuModel())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// requestSeed derives a workload's request seed from the benchmark seed.
func requestSeed(seed int64, workload string) int64 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	z := uint64(seed)*0x9e3779b97f4a7c15 + h.Sum64()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

func newEnv(o options, sh shape, traced bool) (*env, error) {
	nproc := runtime.GOMAXPROCS(0)
	eng, err := memtest.LookupEngine("proposed")
	if err != nil {
		return nil, err
	}
	e := &env{
		sh: sh, plan: memtest.HeterogeneousExample(), seed: requestSeed(o.seed, sh.name),
		nproc: nproc, clients: sh.clients, workers: nproc, engine: eng,
	}
	if e.clients == 0 {
		e.clients = nproc
	}
	if sh.clients == 0 {
		// Each of the concurrent small jobs runs on one fleet worker.
		e.workers = 1
	}
	cfg := stackConfig{
		scratch: scratchDir(o.workdir), disk: sh.disk, nproc: nproc, clients: e.clients, retain: retainJobs,
		single: sh.top == levelHTTP || (traced && sh.top > levelHTTP),
		coord:  sh.top == levelCoord,
		spool:  traced && sh.top >= levelSpool,
	}
	if e.st, err = buildStack(cfg); err != nil {
		return nil, err
	}
	if sh.top == levelFleet {
		if e.session, err = e.newSession(eng, e.workers); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

func (e *env) close() { e.st.close() }

// warm runs warm-up jobs at lvl and fails if any of them failed.
func (e *env) warm(ctx context.Context, lvl level, jobs int) error {
	p, err := e.newPhase(lvl, false, warmBase)
	if err != nil {
		return err
	}
	if err := e.runPhase(ctx, p, 0, jobs); err != nil {
		return err
	}
	if len(p.failures) > 0 {
		return fmt.Errorf("warm-up: %s", p.failures[0])
	}
	return nil
}

func runWorkload(ctx context.Context, o options, sh shape, w *bufio.Writer) (*result, error) {
	dur := time.Duration(o.seconds * float64(time.Second))
	fmt.Fprintf(w, "\n== %s (seed %d -> request seed %d, %d devices per job, trace=%v)\n",
		sh.name, o.seed, requestSeed(o.seed, sh.name), sh.jobDevices, o.trace)
	if o.trace {
		return runTraced(ctx, o, sh, dur, w)
	}
	var setups []float64
	var e *env
	for i := range setupRepeats {
		t0 := time.Now()
		ei, err := newEnv(o, sh, false)
		if err != nil {
			return nil, err
		}
		if err := ei.warm(ctx, sh.top, sh.warmJobs); err != nil {
			ei.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			ei.close()
		} else {
			e = ei
		}
	}
	defer e.close()
	p, err := e.newPhase(sh.top, false, 0)
	if err != nil {
		return nil, err
	}
	if err := e.runPhase(ctx, p, dur, 1); err != nil {
		return nil, err
	}
	ref, v, err := e.verify(ctx, p)
	if err != nil {
		return nil, err
	}
	gated, extra := e2eMetrics(e, p, setups, ref, v)
	printMetrics(w, "end-to-end metrics (gated by BENCHMARK.json):", gated)
	printMetrics(w, "also reported:", extra)
	printVerdict(w, v)
	return toResult(v, gated), nil
}

// verify computes the reference for every job any of the phases ran
// and checks each record against it.
func (e *env) verify(ctx context.Context, phases ...*phase) (*reference, verdict, error) {
	jobs := 0
	for _, p := range phases {
		for _, r := range p.recs {
			jobs = max(jobs, r.k+1)
		}
	}
	ref, err := computeReference(ctx, e.plan, e.seed, e.sh.jobDevices, jobs, e.nproc, e.sh.top > levelFleet)
	if err != nil {
		return nil, verdict{}, err
	}
	var v verdict
	for _, p := range phases {
		ref.check(p.lvl, e.sh.jobDevices, p.recs, &v)
		v.errs = append(v.errs, p.failures...)
	}
	return ref, v, nil
}

func printVerdict(w io.Writer, v verdict) {
	fmt.Fprintf(w, "check: %d of %d jobs failed (%d output mismatches)\n", v.failed, v.attempted, v.mismatched)
	for _, s := range v.errs {
		fmt.Fprintf(w, "  %s\n", s)
	}
}

func toResult(v verdict, ms []metric) *result {
	res := &result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: map[string]outMetric{}}
	for _, m := range ms {
		val := m.value
		if math.IsNaN(val) || math.IsInf(val, 0) {
			val = 0
		}
		res.Metrics[m.name] = outMetric{Value: val, Unit: m.unit}
	}
	return res
}

// traceRounds is how many rounds a traced run interleaves its phases
// in, so drift in the host's speed spreads over every level alike.
const traceRounds = 3

// runTraced is the per-layer run: the top level untraced, for the
// tracing overhead, and every level from the fleet up with spans. The
// phases share the run's time equally and run interleaved in rounds,
// in alternating order.
func runTraced(ctx context.Context, o options, sh shape, dur time.Duration, w *bufio.Writer) (*result, error) {
	e, err := newEnv(o, sh, true)
	if err != nil {
		return nil, err
	}
	defer e.close()
	for l := levelFleet; l <= sh.top; l++ {
		if err := e.warm(ctx, l, max(1, sh.warmJobs/4)); err != nil {
			return nil, err
		}
	}
	untraced, err := e.newPhase(sh.top, false, 0)
	if err != nil {
		return nil, err
	}
	order := []*phase{untraced}
	levels := map[level]*phase{}
	for l := levelFleet; l <= sh.top; l++ {
		if levels[l], err = e.newPhase(l, true, 0); err != nil {
			return nil, err
		}
		order = append(order, levels[l])
	}
	slice := dur / time.Duration(len(order)*traceRounds)
	minJobs := max(1, sh.minJobs/traceRounds)
	for r := range traceRounds {
		for i := range order {
			p := order[i]
			if r%2 == 1 {
				p = order[len(order)-1-i]
			}
			if err := e.runPhase(ctx, p, slice, minJobs); err != nil {
				return nil, err
			}
		}
	}
	for l := levelFleet; l <= sh.top; l++ {
		path := filepath.Join(o.workdir, "traces", fmt.Sprintf("%s-seed%d-%s.jsonl", sh.name, o.seed, l))
		if err := levels[l].tr.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	// The untraced phase runs the same job sequence as the top level,
	// and, untraced, it may get further in it than any traced level.
	ref, v, err := e.verify(ctx, order...)
	if err != nil {
		return nil, err
	}

	metrics, b := layerMetrics(e, untraced, levels, ref)
	fmt.Fprintf(w, "levels run (same job sequence each, %d rounds of %s per level):\n", traceRounds, slice)
	for l := levelFleet; l <= sh.top; l++ {
		p := levels[l]
		fmt.Fprintf(w, "  %-8s %10.1f devices/s  n=%d jobs, %d devices\n", l, p.devicesPerSec(), len(p.recs), p.devices())
	}
	fmt.Fprintf(w, "  %-8s %10.1f devices/s  n=%d jobs (the %s level, untraced)\n", "untraced", untraced.devicesPerSec(), len(untraced.recs), sh.top)
	printMetrics(w, "per-layer metrics:", metrics)
	b.print(w)
	for l := levelFleet; l <= sh.top; l++ {
		printSelfTimes(w, l, levels[l].tr.snapshot(), len(levels[l].recs))
	}
	fmt.Fprintf(w, "tracing overhead: untraced %.1f devices/s, traced %.1f devices/s\n",
		untraced.devicesPerSec(), levels[sh.top].devicesPerSec())
	printVerdict(w, v)
	return toResult(v, metrics), nil
}
