package coord

import (
	"context"
	"sort"
	"time"

	"repro/service"
)

// stealMonitor watches one running job's shards and re-splits a
// straggler's unstarted remainder across idle workers. It runs for
// exactly the job's run (ctx is the run context) and only ever takes
// work that provably has not been merged: the commit re-checks the
// shard under the job lock, so a remainder that moved while the steal
// was being planned is left alone.
func (c *Coordinator) stealMonitor(ctx context.Context, j *service.Job, d *drain) {
	t := time.NewTicker(c.cfg.StealInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.maybeSteal(ctx, j, d)
		}
	}
}

// shardRemainders sizes each shard's unmerged work. The shard the
// merge loop is draining right now is measured merge-side (its Merged
// counter advances live); a shard whose stream has not been reached
// yet is measured by polling its worker job's completed count — the
// work exists, it just has not streamed — and a shard whose worker
// cannot even report (down, removed) counts as fully remaining, which
// is what makes the monitor rescue ranges parked on dead workers.
func (c *Coordinator) shardRemainders(ctx context.Context, shards []service.ShardStatus, drainIdx int) []int {
	rem := make([]int, len(shards))
	for i, sh := range shards {
		size := sh.Hi - sh.Lo
		if sh.Merged >= size {
			continue // complete: remainder 0
		}
		rem[i] = size - sh.Merged
		if i == drainIdx || sh.JobID == "" {
			continue
		}
		done := 0
		if w := c.reg.byURL(sh.Worker); w != nil {
			pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
			st, err := w.cli.Job(pctx, sh.JobID)
			cancel()
			if err == nil {
				// The worker job's line k is device DispatchLo+k, so its
				// completed count maps onto the shard's device range here.
				done = sh.DispatchLo - sh.Lo + st.Completed
			}
		}
		rem[i] = max(size-max(done, sh.Merged), 0)
	}
	return rem
}

// maybeSteal runs one steal round: find the straggler, and if its
// remainder dwarfs the fleet median while idle capacity sits unused,
// re-split that remainder via the shard planner, dispatch the pieces as
// new ordered range jobs, shrink the straggler's shard to its merge
// point and cancel the superseded worker job. Absolute-index seeding
// keeps the merged stream byte-identical: the stolen shards produce
// exactly the lines the straggler would have.
func (c *Coordinator) maybeSteal(ctx context.Context, j *service.Job, d *drain) {
	var shards []service.ShardStatus
	drainIdx := 0
	j.Update(func(st *service.JobStatus) bool {
		if st.State == service.StateRunning {
			shards = append(shards, st.Shards...)
			drainIdx = d.idx
		}
		return false
	})
	if shards == nil {
		return
	}
	for _, sh := range shards {
		if sh.Merged < sh.Hi-sh.Lo && sh.JobID == "" {
			return // a dispatch or re-dispatch is in flight; sizing would race it
		}
	}

	rem := c.shardRemainders(ctx, shards, drainIdx)
	vi, worst := -1, 0
	for i, r := range rem {
		if r > worst {
			vi, worst = i, r
		}
	}
	if vi < 0 || worst < 2 {
		return // nothing worth splitting
	}
	sorted := append([]int(nil), rem...)
	sort.Ints(sorted)
	median := sorted[(len(sorted)-1)/2]
	if float64(worst) <= c.cfg.StealThreshold*float64(median) {
		return // the worst shard is within the lag budget
	}
	victim := shards[vi]
	targets, idle := c.reg.stealTargets(victim.Worker)
	if len(targets) == 0 {
		return // no idle capacity to steal onto
	}

	// Plan and dispatch the stolen sub-ranges before touching the shard
	// table: if the victim turns out to have moved, the stolen jobs are
	// cancelled and nothing changed.
	cut := victim.Lo + victim.Merged
	plan := planShards(cut, victim.Hi-cut, max(idle, len(targets)), c.cfg.MinShard)
	stolen := make([]service.ShardStatus, 0, len(plan))
	dispatched := 0
	for k, p := range plan {
		sh := service.ShardStatus{Lo: p.Lo, Hi: p.Hi, Stolen: true}
		w := targets[k%len(targets)]
		if st, err := w.cli.Submit(ctx, c.shardRequest(j, p.Lo, p.Hi)); err == nil {
			sh.Worker, sh.JobID, sh.DispatchLo = w.url, st.ID, p.Lo
			dispatched++
		} else {
			c.log.Warn("steal dispatch refused, leaving sub-range for the merge loop",
				"job", j.ID, "worker", w.url, "lo", p.Lo, "hi", p.Hi, "error", err)
		}
		stolen = append(stolen, sh)
	}
	cancelStolen := func() {
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, sh := range stolen {
			if sh.JobID == "" {
				continue
			}
			if w := c.reg.byURL(sh.Worker); w != nil {
				w.cli.Cancel(cctx, sh.JobID) //nolint:errcheck // best effort; the job may already be gone
			}
		}
	}
	if dispatched == 0 {
		return // every target refused; nothing changed, retry next tick
	}

	// Commit: the victim must still be exactly the shard the plan was
	// built from — same range, same worker job, merge point unmoved. A
	// healthy stream that merged even one line in the meantime aborts
	// the steal, so only genuinely stalled remainders ever move.
	committed := false
	var interrupt context.CancelFunc
	j.Update(func(st *service.JobStatus) bool {
		if st.State != service.StateRunning || vi >= len(st.Shards) {
			return false
		}
		v := &st.Shards[vi]
		if v.Hi != victim.Hi || v.JobID != victim.JobID || v.Lo+v.Merged != cut {
			return false
		}
		v.Hi = cut // the victim shard is now complete at its merge point
		tail := append(stolen, st.Shards[vi+1:]...)
		st.Shards = append(st.Shards[:vi+1], tail...)
		st.Steals++
		committed = true
		if d.idx == vi && d.cancel != nil {
			// Un-park the merge loop's drain of the superseded stream.
			interrupt = d.cancel
		}
		return true // persist; the next persist (or recovery's rebase) repairs a missed write
	})
	if !committed {
		cancelStolen()
		return
	}
	c.metrics.shardSteals.Inc()
	c.log.Info("straggler remainder stolen",
		"job", j.ID, "shard", vi, "worker", victim.Worker, "cut", cut, "hi", victim.Hi,
		"pieces", len(stolen), "dispatched", dispatched, "remainder", worst, "median", median)
	if interrupt != nil {
		interrupt()
	}
	if victim.JobID != "" {
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if w := c.reg.byURL(victim.Worker); w != nil {
			w.cli.Cancel(cctx, victim.JobID) //nolint:errcheck // superseded; the worker may already have finished it
		}
	}
}
