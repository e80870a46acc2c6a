// Command memtest-coord shards fleet diagnosis jobs across a pool of
// memtestd worker nodes while speaking the exact wire API of a single
// memtestd: the same clients, submissions and NDJSON result streams
// work unchanged, and the merged stream is byte-identical to the same
// job run on one node. See the repro/service/coord package
// documentation for the mechanism and docs/OPERATIONS.md for the full
// flag and failure-mode reference.
//
// Usage:
//
//	memtest-coord -worker http://host1:8347 -worker http://host2:8347
//	              [-addr :8357] [-jobs 2] [-queue 16] [-min-shard 64]
//	              [-redispatch 3] [-drain 15s] [-data-dir DIR]
//	              [-retain-jobs N] [-retain-bytes N] [-resume=true]
//	              [-probe-interval 2s] [-probe-backoff-max 30s]
//	              [-quarantine-after 3] [-rejoin-after 2]
//	              [-steal-threshold 4] [-steal-interval 1s]
//	              [-log-level info] [-log-format text] [-debug-addr ADDR]
//
// Each job's device range splits into contiguous per-worker shards
// dispatched as first_device range jobs; worker crashes heal via
// stream reconnect and worker-side crash resume, a worker dead past
// the reconnect budget has its shard re-dispatched elsewhere, and with
// -data-dir the coordinator's own restart recovers the shard table and
// re-merges only the missing suffix. Workers must run with crash
// resume enabled (their default); reachable workers that report
// resume disabled or unordered delivery are refused at startup.
//
// The -worker flags only seed the fleet: membership is mutable at
// runtime via POST/DELETE /v1/workers (GET lists the cached view), so
// starting with no workers is allowed — jobs queue-fail until one
// joins. A background prober owns worker health (cadence
// -probe-interval, per-worker exponential backoff up to
// -probe-backoff-max while a worker is failing); workers that flap or
// fail -quarantine-after consecutive probes are quarantined — skipped
// by dispatch until -rejoin-after consecutive clean probes readmit
// them. Straggler shards whose unmerged remainder exceeds
// -steal-threshold times the fleet median have that remainder re-split
// across idle workers as new range jobs (the merged stream stays
// byte-identical); -steal-threshold 0 disables stealing.
//
// The coordinator always serves Prometheus metrics (coord_* series
// plus the per-worker fleet view) at GET /metrics on the main
// listener. -debug-addr additionally opens a second listener — bind it
// to loopback — with net/http/pprof under /debug/pprof/ and a /metrics
// mirror. Logs are structured (log/slog) on stderr; -log-level and
// -log-format tune them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/debugsrv"
	"repro/service"
	"repro/service/client"
	"repro/service/coord"
	"repro/service/store"
)

// workerList collects repeated -worker flags, with comma-separated
// values accepted too.
type workerList []string

func (w *workerList) String() string { return strings.Join(*w, ",") }

func (w *workerList) Set(v string) error {
	for _, u := range strings.Split(v, ",") {
		if u = strings.TrimSpace(u); u != "" {
			*w = append(*w, u)
		}
	}
	return nil
}

func main() {
	var workers workerList
	flag.Var(&workers, "worker", "memtestd worker base URL (repeat, or comma-separate)")
	flag.Var(&workers, "workers", "alias for -worker: comma-separated memtestd worker base URLs")
	var (
		addr        = flag.String("addr", ":8357", "listen address")
		jobs        = flag.Int("jobs", 2, "maximum concurrently merging jobs")
		queue       = flag.Int("queue", 16, "queued-job backlog before submissions get HTTP 429")
		minShard    = flag.Int("min-shard", 64, "minimum devices per shard (tiny jobs are not over-sharded)")
		redispatch  = flag.Int("redispatch", 3, "per-shard budget of re-dispatches to a new worker after a stream fails")
		boInitial   = flag.Duration("backoff-initial", 0, "first shard-stream reconnect delay (0 = client default, 100ms)")
		boMax       = flag.Duration("backoff-max", 0, "shard-stream reconnect delay cap (0 = client default, 5s)")
		boAttempts  = flag.Int("backoff-attempts", 0, "consecutive shard-stream reconnect failures before the shard is re-dispatched (0 = client default, 8)")
		drain       = flag.Duration("drain", 15*time.Second, "graceful shutdown drain timeout")
		dataDir     = flag.String("data-dir", "", "spool merged manifests and results here; empty = in-memory (jobs die with the process)")
		retainJobs  = flag.Int("retain-jobs", 0, "finished jobs kept before the oldest are evicted (0 = unlimited)")
		retainBytes = flag.Int64("retain-bytes", 0, "total merged result bytes kept before the oldest finished jobs are evicted (0 = unlimited)")
		resume      = flag.Bool("resume", true, "resume crash-interrupted merges on startup by re-attaching to worker jobs; false recovers them as failed with partial results")
		probeEvery  = flag.Duration("probe-interval", 2*time.Second, "background health-probe cadence for healthy workers")
		probeBoMax  = flag.Duration("probe-backoff-max", 30*time.Second, "cap on the per-worker exponential probe backoff while a worker is failing")
		quarAfter   = flag.Int("quarantine-after", 3, "consecutive probe failures (or flaps) before a worker is quarantined")
		rejoinAfter = flag.Int("rejoin-after", 2, "consecutive clean probes a quarantined worker needs to rejoin the active set")
		stealThresh = flag.Float64("steal-threshold", 4, "steal a shard's remainder when it exceeds this multiple of the fleet median remainder (0 disables stealing)")
		stealEvery  = flag.Duration("steal-interval", time.Second, "how often the steal monitor sizes up a running job's shards")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logFormat   = flag.String("log-format", "text", "log encoding: text (key=value) or json")
		debugAddr   = flag.String("debug-addr", "", "optional second listener with /debug/pprof/ and /metrics; bind to loopback")
	)
	flag.Parse()

	log, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memtest-coord: %v\n", err)
		os.Exit(1)
	}
	fatal := func(msg string, err error) {
		log.Error(msg, "error", err)
		os.Exit(1)
	}
	if len(workers) == 0 {
		log.Warn("starting with an empty fleet; join workers via POST /v1/workers")
	}

	reg := obs.NewRegistry()
	cfg := coord.Config{
		Workers: workers,
		Jobs:    *jobs, Queue: *queue,
		MinShard: *minShard, Redispatches: *redispatch,
		Backoff:    client.Backoff{Initial: *boInitial, Max: *boMax, Attempts: *boAttempts},
		RetainJobs: *retainJobs, RetainBytes: *retainBytes,
		NoResume:        !*resume,
		ProbeInterval:   *probeEvery,
		ProbeBackoffMax: *probeBoMax,
		QuarantineAfter: *quarAfter,
		RejoinAfter:     *rejoinAfter,
		StealThreshold:  *stealThresh,
		StealInterval:   *stealEvery,
		Metrics:         reg,
		Logger:          log,
	}
	if *dataDir != "" {
		st, err := store.NewDisk(*dataDir)
		if err != nil {
			fatal("opening data dir", err)
		}
		cfg.Store = st
	}
	c, err := coord.New(cfg)
	if err != nil {
		fatal("starting coordinator", err)
	}
	if *dataDir != "" {
		h := c.Health()
		log.Info("data dir recovered", "dir", *dataDir, "jobs_recovered", h.JobsRecovered, "jobs_resuming", h.JobsResumed)
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: service.NewServer(c),
		// Bound header reads so stalled clients cannot pin connections
		// forever; no blanket WriteTimeout — result streams are
		// long-lived by design.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if *debugAddr != "" {
		dbg := debugsrv.Serve(*debugAddr, reg, log)
		defer dbg.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Info("memtest-coord listening", "addr", *addr, "workers", len(workers), "jobs", *jobs, "queue", *queue, "version", obs.Version())

	select {
	case err := <-errCh:
		c.Close()
		fatal("listener failed", err)
	case <-ctx.Done():
	}
	log.Info("signal received, draining", "timeout", drain.String())
	// Cancel merges first so open result streams terminate and the
	// listener can actually drain, then close the listener.
	c.Close()
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Warn("drain incomplete", "error", err)
	}
	log.Info("stopped")
}
