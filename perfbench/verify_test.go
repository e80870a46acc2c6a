package main

import (
	"context"
	"encoding/json"
	"testing"

	"repro/memtest"
)

// A corrupted result line is counted as a failed job, never dropped.
func TestCorruptedLineCountsAsFailure(t *testing.T) {
	const jobDevices, jobs, seed = 8, 3, 5
	plan := memtest.HeterogeneousExample()
	ref, err := computeReference(context.Background(), plan, seed, jobDevices, jobs, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	s, err := memtest.New(plan, memtest.WithSeed(seed), memtest.WithDRF(), memtest.WithFleetDelivery(memtest.Ordered))
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]jobRun, jobs)
	digests := make([]digest, jobs)
	for dr, err := range s.RunFleetRange(context.Background(), 0, jobs*jobDevices) {
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(dr)
		if err != nil {
			t.Fatal(err)
		}
		k := dr.Device / jobDevices
		if k == 1 && dr.Device%jobDevices == 3 {
			line[len(line)/2] ^= 1 // one flipped bit in one line of job 1
		}
		runs[k].k = k
		runs[k].line(&digests[k], line)
	}
	p := &phase{lvl: levelHTTP}
	for k := range runs {
		runs[k].digest = digests[k].h
		if err := p.keep(&runs[k]); err != nil {
			t.Fatal(err)
		}
	}
	var v verdict
	ref.check(levelHTTP, jobDevices, p.recs, &v)
	if v.attempted != jobs || v.failed != 1 || v.mismatched != 1 {
		t.Fatalf("attempted %d failed %d mismatched %d, want %d 1 1", v.attempted, v.failed, v.mismatched, jobs)
	}

	// A short job (a dropped line) is a mismatch too.
	short := p.recs[0]
	short.lines--
	v = verdict{}
	ref.check(levelHTTP, jobDevices, []jobRecord{short}, &v)
	if v.failed != 1 {
		t.Fatalf("short job: failed %d, want 1", v.failed)
	}
}

// The fleet level's structural fingerprint agrees with the reference
// for a run on a different worker count.
func TestFleetDigestMatchesReference(t *testing.T) {
	const jobDevices, jobs, seed = 64, 2, 9
	plan := memtest.HeterogeneousExample()
	ref, err := computeReference(context.Background(), plan, seed, jobDevices, jobs, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := memtest.New(plan, memtest.WithSeed(seed), memtest.WithDRF(), memtest.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]jobRecord, jobs)
	for k := range recs {
		var d digest
		recs[k].k = k
		for dr, err := range s.RunFleetRange(context.Background(), k*jobDevices, (k+1)*jobDevices) {
			if err != nil {
				t.Fatal(err)
			}
			d.device(dr)
			recs[k].lines++
		}
		recs[k].digest = d.h
	}
	var v verdict
	ref.check(levelFleet, jobDevices, recs, &v)
	if v.failed != 0 {
		t.Fatalf("fleet digests: %d of %d failed: %v", v.failed, v.attempted, v.errs)
	}
}

// The reference covers every job of every phase checked: a phase that
// got further through the job sequence than the others (as the
// untraced phase of a traced run may) is checked, not failed for want
// of a reference.
func TestVerifyCoversTheFurthestPhase(t *testing.T) {
	eng, err := memtest.LookupEngine("proposed")
	if err != nil {
		t.Fatal(err)
	}
	e := &env{sh: shape{jobDevices: 8, top: levelFleet}, plan: memtest.HeterogeneousExample(),
		seed: 3, nproc: 1, workers: 1, engine: eng}
	if e.session, err = e.newSession(eng, 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func(jobs int) *phase {
		p := &phase{lvl: levelFleet, sess: e.session}
		for k := range jobs {
			j := e.inProcessJob(ctx, p, k)
			if err := p.keep(&j); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	short, long := run(2), run(5)
	_, v, err := e.verify(ctx, short, long)
	if err != nil {
		t.Fatal(err)
	}
	if v.attempted != 7 || v.failed != 0 {
		t.Fatalf("attempted %d failed %d, want 7 0: %v", v.attempted, v.failed, v.errs)
	}
}
