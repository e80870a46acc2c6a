package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/memtest"
)

// ndjson runs devices [lo, hi) of the heterogeneous fleet on eng and
// returns the stream memtestd would spool for it.
func ndjson(t *testing.T, eng memtest.Engine, lo, hi int) []byte {
	t.Helper()
	s, err := memtest.New(memtest.HeterogeneousExample(), memtest.WithEngine(eng), memtest.WithSeed(11),
		memtest.WithDRF(), memtest.WithWorkers(2), memtest.WithFleetDelivery(memtest.Ordered))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	for dr, err := range s.RunFleetRange(context.Background(), lo, hi) {
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(dr); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// The timing decorator changes nothing it measures: a decorated and an
// undecorated run of the same window produce byte-identical NDJSON,
// and the decorator saw every lane of every batch.
func TestTimedEngineIsByteIdentical(t *testing.T) {
	inner, err := memtest.LookupEngine("proposed")
	if err != nil {
		t.Fatal(err)
	}
	var fs fleetStats
	tr := newTracer()
	timed, err := newTimedEngine(inner, &fs, tr)
	if err != nil {
		t.Fatal(err)
	}
	const lo, hi = 40, 200 // a window whose batches are not all full
	want := ndjson(t, inner, lo, hi)
	got := ndjson(t, timed, lo, hi)
	if !bytes.Equal(got, want) {
		t.Fatalf("decorated stream differs from undecorated (%d vs %d bytes)", len(got), len(want))
	}
	if n := fs.lanes.Load(); n != hi-lo {
		t.Errorf("decorator saw %d lanes, want %d", n, hi-lo)
	}
	if fs.bank.n.Load() == 0 || fs.load.n.Load() != hi-lo || fs.build.n.Load() == 0 {
		t.Errorf("decorator counters: batches %d, loads %d, builds %d", fs.bank.n.Load(), fs.load.n.Load(), fs.build.n.Load())
	}
	if len(tr.snapshot()) == 0 {
		t.Error("decorator recorded no spans")
	}
}
