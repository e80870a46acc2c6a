package coord

import (
	"time"

	"repro/internal/obs"
)

// coordMetrics bundles the coordinator's event-driven instruments,
// coord_-prefixed so a dashboard scraping both a coordinator and its
// workers never conflates the two layers. With a nil registry every
// instrument is a nil no-op, same contract as the manager's.
type coordMetrics struct {
	mergedLines     *obs.Counter
	shardDispatch   *obs.Counter
	shardRedispatch *obs.Counter
	shardSteals     *obs.Counter
}

func newCoordMetrics(reg *obs.Registry) *coordMetrics {
	return &coordMetrics{
		mergedLines:     reg.Counter("coord_merged_lines_total", "Worker result lines merged into coordinated spools, in device order."),
		shardDispatch:   reg.Counter("coord_shard_dispatch_total", "Shard ranges submitted to workers (first dispatches and re-dispatches)."),
		shardRedispatch: reg.Counter("coord_shard_redispatch_total", "Shards moved to a new worker after a stream failed past the reconnect budget."),
		shardSteals:     reg.Counter("coord_shard_steals_total", "Straggler shard remainders re-split and re-dispatched to idle workers."),
	}
}

// registerGauges wires the scrape-time views the kernel does not
// already export: merge state and the self-healing stream totals. The
// per-worker gauges (registerWorkerGauges) read the state recorded by
// the last probe under the worker's own lock — a scrape never issues
// fleet HTTP probes.
func (c *Coordinator) registerGauges(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("coord_jobs_running", "Coordinated jobs currently merging.", func() float64 {
		return float64(c.k.Health().RunningJobs)
	})
	reg.GaugeFunc("coord_merge_backlog_devices", "Devices still unmerged across non-terminal jobs (merge lag).", func() float64 {
		var lag int
		for _, st := range c.k.Jobs() {
			if !st.State.Terminal() {
				lag += st.Devices - st.Completed
			}
		}
		return float64(lag)
	})
	reg.GaugeFunc("coord_devices_per_sec", "Rolling merged-device rate over the last few seconds.", c.meter.Rate)
	reg.CounterFunc("coord_stream_reconnects_total", "Shard-stream reconnect attempts across the fleet.", func() float64 {
		return float64(c.streamStats.Reconnects.Load())
	})
	reg.CounterFunc("coord_stream_backoff_seconds_total", "Backoff the shard streams scheduled before reconnecting, in seconds.", func() float64 {
		return time.Duration(c.streamStats.BackoffNanos.Load()).Seconds()
	})
	reg.CounterFunc("coord_stream_lines_resumed_total", "Already-merged lines shard reconnects skipped via offset resume.", func() float64 {
		return float64(c.streamStats.LinesResumed.Load())
	})
}

// registerWorkerGauges wires one worker's per-URL scrape-time series.
// Called for every seed at startup and for each mid-flight join; the
// matching unregisterWorkerGauges drops the series when the worker
// leaves, so the /metrics page always mirrors the membership table.
func (c *Coordinator) registerWorkerGauges(w *worker) {
	reg := c.cfg.Metrics
	if reg == nil {
		return
	}
	reg.GaugeFunc("coord_worker_up", "1 when the worker is active: last probe reachable, shard-capable and not quarantined.", func() float64 {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.state == stateActive {
			return 1
		}
		return 0
	}, "worker", w.url)
	reg.GaugeFunc("coord_worker_quarantined", "1 while the worker is quarantined for flapping or failing probes.", func() float64 {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.state == stateQuarantined {
			return 1
		}
		return 0
	}, "worker", w.url)
	reg.GaugeFunc("coord_worker_probe_age_seconds", "Seconds since the prober last finished probing the worker; -1 before the first probe.", func() float64 {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.lastProbe.IsZero() {
			return -1
		}
		return c.now().Sub(w.lastProbe).Seconds()
	}, "worker", w.url)
	reg.GaugeFunc("coord_worker_fleet_workers", "Device-worker pool the worker reported on its last successful probe.", func() float64 {
		w.mu.Lock()
		defer w.mu.Unlock()
		return float64(w.health.FleetWorkers)
	}, "worker", w.url)
	reg.GaugeFunc("coord_worker_idle_workers", "Idle device workers the worker reported on its last successful probe.", func() float64 {
		w.mu.Lock()
		defer w.mu.Unlock()
		return float64(w.health.IdleWorkers)
	}, "worker", w.url)
}

// unregisterWorkerGauges drops a removed worker's per-URL series.
func (c *Coordinator) unregisterWorkerGauges(url string) {
	reg := c.cfg.Metrics
	if reg == nil {
		return
	}
	for _, name := range []string{
		"coord_worker_up",
		"coord_worker_quarantined",
		"coord_worker_probe_age_seconds",
		"coord_worker_fleet_workers",
		"coord_worker_idle_workers",
	} {
		reg.Unregister(name, "worker", url)
	}
}
