package coord

import (
	"context"

	"repro/service"
)

// drain names the shard whose stream the merge loop is currently
// draining and the cancel for that single attempt; the steal monitor
// uses them to un-park a drain whose remainder it just re-assigned (the
// stream may be stalled and would otherwise never notice its shard
// shrank). It lives for one run and is only touched inside the job's
// Update, so the job lock guards it.
type drain struct {
	idx    int
	cancel context.CancelFunc
}

// set registers the cancel func for the drain attempt on shard i;
// clear unregisters it. Only the merge goroutine writes these (one
// drain at a time), the steal monitor fires the cancel under the job
// lock.
func (d *drain) set(j *service.Job, i int, cancel context.CancelFunc) {
	j.Update(func(*service.JobStatus) bool {
		d.idx, d.cancel = i, cancel
		return false
	})
}

func (d *drain) clear(j *service.Job) { d.set(j, 0, nil) }

// appendShard spools one merged device line for shard i and wakes
// followers. The boundary check, the spool append and the counters are
// one critical section on purpose (Job.AppendIf): the steal monitor
// moves shard boundaries under the job lock, so an append that checked
// Hi outside the lock could spool a line past a freshly shrunk shard
// and duplicate it with the stolen shard's stream. Returns
// accepted=false when the shard is already full (the line belongs to a
// stolen shard's worker job now), full=true when this line completed
// the shard, and a non-nil error only for a spool failure — results
// the coordinator cannot retain must not silently vanish from late
// readers.
func appendShard(j *service.Job, i int, line []byte) (accepted, full bool, err error) {
	accepted, err = j.AppendIf(line, func(st *service.JobStatus) *int {
		sh := &st.Shards[i]
		left := sh.Hi - sh.Lo - sh.Merged
		full = left <= 1
		if left <= 0 {
			return nil
		}
		return &sh.Merged
	})
	return accepted, full, err
}
