package coord

import (
	"context"
	"fmt"
	"time"

	"repro/service"
	"repro/service/client"
)

// merge runs one coordinated job end to end: every shard without a
// live worker job is dispatched up front — so the whole fleet computes
// in parallel — and the shards are then drained strictly in device
// order, each line appended to the merged spool as it arrives. The
// merged stream is byte-identical to a single-node run of the same
// request: workers run absolute device ranges (first_device), so
// concatenating their ordered streams is exactly the single stream.
// The drain loop re-reads the table length every step because the
// steal monitor may insert stolen sub-shards behind the drain point.
func (c *Coordinator) merge(ctx context.Context, j *service.Job, d *drain) error {
	for i := range len(j.Status().Shards) {
		sh := j.Status().Shards[i]
		if sh.JobID == "" && sh.Lo+sh.Merged < sh.Hi {
			if err := c.dispatch(ctx, j, i, ""); err != nil {
				return err
			}
		}
	}
	for i := 0; i < len(j.Status().Shards); i++ {
		if err := c.drainShard(ctx, j, d, i); err != nil {
			return err
		}
	}
	return nil
}

// dispatch submits shard i's remaining device range [Lo+Merged, Hi) as
// an ordered job on an active worker, preferring workers other than
// avoid (the one whose stream just failed). Every worker that refuses
// the submission (queue full, mid-restart) joins the round's refused
// set so it cannot be re-picked and re-refused; dispatch fails only
// when no worker outside that set is active.
func (c *Coordinator) dispatch(ctx context.Context, j *service.Job, i int, avoid string) error {
	sh := j.Status().Shards[i]
	lo := sh.Lo + sh.Merged
	req := c.shardRequest(j, lo, sh.Hi)
	refused := map[string]bool{}
	var lastErr error
	for {
		w, err := c.reg.pick(refused, avoid)
		if err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		st, err := w.cli.Submit(ctx, req)
		if err != nil {
			lastErr = err
			refused[w.url] = true
			if ctx.Err() != nil {
				break
			}
			continue
		}
		j.Update(func(js *service.JobStatus) bool {
			js.Shards[i].Worker, js.Shards[i].JobID, js.Shards[i].DispatchLo = w.url, st.ID, lo
			return true
		})
		c.metrics.shardDispatch.Inc()
		c.log.Info("shard dispatched", "job", j.ID, "shard", i, "worker", w.url, "job_id", st.ID, "lo", lo, "hi", sh.Hi)
		return nil
	}
	return fmt.Errorf("coord: dispatch shard [%d,%d): %w", lo, sh.Hi, lastErr)
}

// shardRequest derives the worker job request for the device range
// [lo, hi) of coordinated job j.
func (c *Coordinator) shardRequest(j *service.Job, lo, hi int) service.JobRequest {
	return service.JobRequest{
		Plan:        j.Req.Plan,
		Devices:     hi - lo,
		FirstDevice: lo,
		Scheme:      j.Req.Scheme,
		DRF:         j.Req.DRF,
		Seed:        j.Req.Seed,
		Workers:     j.Req.Workers,
		Delivery:    "ordered", // resume and merge both need an ordered spool
		Repair:      j.Req.Repair,
	}
}

// drainShard streams shard i's worker job into the merged spool until
// the shard is complete. The stream is self-healing (client reconnect
// with offset), so a worker restart mid-shard heals invisibly; a
// stream that still fails — reconnect budget exhausted, the worker job
// lost or failed, a clean end short of the range — re-dispatches the
// missing remainder [Lo+Merged, Hi) to another capable worker, up to
// the configured re-dispatch budget. The shard's Hi can shrink under a
// running stream when the steal monitor re-splits the remainder, so
// every append is bounds-checked atomically (appendShard) and the
// shard is re-read after every stream end before any failure handling.
func (c *Coordinator) drainShard(ctx context.Context, j *service.Job, d *drain, i int) error {
	for {
		sh := j.Status().Shards[i]
		if sh.Merged >= sh.Hi-sh.Lo {
			j.Update(checkpoint)
			return nil
		}
		if sh.JobID == "" {
			// Recovered before dispatch, or cleared by a failed stream.
			if err := c.dispatch(ctx, j, i, sh.Worker); err != nil {
				return err
			}
			continue
		}
		var streamErr error
		interrupted := false
		if w := c.reg.byURL(sh.Worker); w == nil {
			streamErr = fmt.Errorf("coord: worker %s no longer a fleet member", sh.Worker)
		} else {
			// Each attempt gets its own cancelable context, registered on
			// the job so the steal monitor can interrupt a drain that is
			// parked on a stalled stream it just stole the remainder of.
			attemptCtx, cancelAttempt := context.WithCancel(ctx)
			d.set(j, i, cancelAttempt)
			// The worker job's line k is device DispatchLo+k, so the next
			// device this merge needs sits at this offset in its spool.
			offset := sh.Lo + sh.Merged - sh.DispatchLo
			for line, err := range w.cli.RawResults(attemptCtx, sh.JobID,
				client.WithOffset(offset), client.WithReconnect(c.cfg.Backoff),
				client.WithStreamStats(&c.streamStats)) {
				if err != nil {
					streamErr = err
					break
				}
				ok, full, aerr := appendShard(j, i, line)
				if aerr != nil {
					d.clear(j)
					cancelAttempt()
					return aerr // own storage failed; re-dispatching cannot help
				}
				if !ok {
					// The shard filled up under us (a steal moved Hi down to
					// the merge point); the line belongs to a stolen shard's
					// worker job now. Stop consuming.
					break
				}
				c.metrics.mergedLines.Inc()
				c.meter.Add(1)
				if full {
					break
				}
			}
			d.clear(j)
			interrupted = attemptCtx.Err() != nil && ctx.Err() == nil
			cancelAttempt()
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		// Re-read before judging the stream: a steal may have shrunk
		// [Lo,Hi) mid-stream, completing the shard regardless of how the
		// stream ended (including the JobError from the superseded worker
		// job being cancelled).
		sh = j.Status().Shards[i]
		if sh.Merged >= sh.Hi-sh.Lo {
			j.Update(checkpoint)
			return nil
		}
		if interrupted {
			continue // the steal monitor cut the attempt; re-evaluate
		}
		if streamErr == nil {
			streamErr = fmt.Errorf("coord: worker %s job %s ended %d lines short of shard [%d,%d)",
				sh.Worker, sh.JobID, sh.Hi-sh.Lo-sh.Merged, sh.Lo, sh.Hi)
		}
		var redispatches int
		j.Update(func(st *service.JobStatus) bool {
			st.Shards[i].Redispatches++
			redispatches = st.Shards[i].Redispatches
			st.Shards[i].JobID = ""
			return true
		})
		c.metrics.shardRedispatch.Inc()
		c.log.Warn("shard stream failed, re-dispatching remainder",
			"job", j.ID, "shard", i, "worker", sh.Worker, "merged", sh.Merged, "redispatches", redispatches, "error", streamErr)
		if redispatches > c.cfg.Redispatches {
			return fmt.Errorf("coord: shard [%d,%d) abandoned after %d re-dispatches: %w",
				sh.Lo, sh.Hi, c.cfg.Redispatches, streamErr)
		}
	}
}

// cancelShardJobs best-effort cancels the worker jobs of every
// incomplete shard, so an abandoned coordinated job does not leave
// workers diagnosing devices nobody will merge.
func (c *Coordinator) cancelShardJobs(j *service.Job) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, sh := range j.Status().Shards {
		if sh.JobID == "" || sh.Merged >= sh.Hi-sh.Lo {
			continue
		}
		if w := c.reg.byURL(sh.Worker); w != nil {
			w.cli.Cancel(ctx, sh.JobID) //nolint:errcheck // the job may be done or the worker gone; either is fine
		}
	}
}

// checkpoint is the shard-boundary Update: it only re-persists the
// manifest (the spool stays authoritative).
func checkpoint(*service.JobStatus) bool { return true }
