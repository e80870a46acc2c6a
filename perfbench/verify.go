package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/memtest"
)

// reference is what every job should have delivered, computed after
// timing by the in-process library: per job the fingerprint of its
// decoded results and of its NDJSON lines (json.Marshal of each
// DeviceResult, as memtestd encodes them), plus the simulated totals.
type reference struct {
	structural []uint64
	lines      []uint64
	devices    int64
	cycles     int64
	located    int64 // truth-located faults
	detectable int64
}

// computeReference runs jobs [0, jobs) of jobDevices devices each on
// `goroutines` one-worker sessions — a different fleet partitioning
// from any measured run — with the registry's "proposed" engine.
// encode adds the NDJSON fingerprints.
func computeReference(ctx context.Context, plan memtest.Plan, seed int64, jobDevices, jobs, goroutines int, encode bool) (*reference, error) {
	ref := &reference{structural: make([]uint64, jobs), lines: make([]uint64, jobs)}
	chunk := max(1, 1024/jobDevices) // jobs per task
	var next atomic.Int64
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := ref.work(ctx, plan, seed, jobDevices, jobs, chunk, &next, &mu, encode)
			if err != nil {
				mu.Lock()
				firstErr = err
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ref, firstErr
}

func (ref *reference) work(ctx context.Context, plan memtest.Plan, seed int64, jobDevices, jobs, chunk int,
	next *atomic.Int64, mu *sync.Mutex, encode bool) error {
	s, err := memtest.New(plan, memtest.WithScheme("proposed"), memtest.WithSeed(seed), memtest.WithDRF(),
		memtest.WithWorkers(1), memtest.WithFleetDelivery(memtest.Ordered))
	if err != nil {
		return err
	}
	var devices, cycles, located, detectable int64
	defer func() {
		mu.Lock()
		ref.devices += devices
		ref.cycles += cycles
		ref.located += located
		ref.detectable += detectable
		mu.Unlock()
	}()
	for {
		j0 := int(next.Add(1)-1) * chunk
		if j0 >= jobs {
			return nil
		}
		j1 := min(j0+chunk, jobs)
		var sd, ld digest
		for dr, err := range s.RunFleetRange(ctx, j0*jobDevices, j1*jobDevices) {
			if err != nil {
				return fmt.Errorf("reference: %w", err)
			}
			if dr.Device%jobDevices == 0 {
				sd, ld = digest{}, digest{}
			}
			sd.device(dr)
			if encode {
				line, err := json.Marshal(dr)
				if err != nil {
					return fmt.Errorf("reference: %w", err)
				}
				ld.bytes(line)
			}
			devices++
			cycles += dr.Result.Report.Cycles
			for _, m := range dr.Result.Memories {
				located += int64(m.TruthLocated)
				detectable += int64(m.Detectable)
			}
			if dr.Device%jobDevices == jobDevices-1 {
				job := dr.Device / jobDevices
				ref.structural[job], ref.lines[job] = sd.h, ld.h
			}
		}
	}
}

// verdict is the outcome of checking records against the reference.
type verdict struct {
	attempted, failed int
	mismatched        int // delivered, but not what the reference says
	errs              []string
}

// check counts every job that failed, delivered the wrong number of
// results, or delivered results whose fingerprint differs from the
// reference. A mismatch is a failure, never dropped.
func (ref *reference) check(lvl level, jobDevices int, recs []jobRecord, v *verdict) {
	for _, r := range recs {
		v.attempted++
		var want uint64
		switch {
		case r.failed:
			v.failed++
			continue
		case r.k < 0 || r.k >= len(ref.structural):
			v.failed++
			v.note(fmt.Sprintf("%s job %d: no reference", lvl, r.k))
			continue
		case lvl == levelFleet:
			want = ref.structural[r.k]
		default:
			want = ref.lines[r.k]
		}
		if r.lines != jobDevices || r.digest != want {
			v.failed++
			v.mismatched++
			v.note(fmt.Sprintf("%s job %d: %d of %d results, digest %016x, want %016x",
				lvl, r.k, r.lines, jobDevices, r.digest, want))
		}
	}
}

func (v *verdict) note(s string) {
	if len(v.errs) < 5 {
		v.errs = append(v.errs, s)
	}
}
