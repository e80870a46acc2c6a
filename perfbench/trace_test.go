package main

import (
	"testing"
	"time"
)

// Self time is a span's duration minus the union of its children's
// intervals, clipped to the span: overlapping children count once and
// a child running past its parent counts only inside it.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 1, Name: "job", Start: 0, End: 100},
		{Op: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{Op: 1, ID: 3, Parent: 1, Name: "a", Start: 20, End: 50}, // overlaps the first a
		{Op: 1, ID: 4, Parent: 1, Name: "b", Start: 60, End: 70},
		{Op: 1, ID: 5, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past the parent
		{Op: 1, ID: 6, Parent: 4, Name: "c", Start: 62, End: 65},
	}
	got := map[string]selfTime{}
	for _, st := range selfTimes(spans) {
		got[st.name] = st
	}
	want := map[string]struct {
		self  time.Duration
		count int
	}{
		"job": {100 - (40 + 10 + 10), 1},
		"a":   {20 + 30, 2},
		"b":   {(10 - 3) + 30, 2},
		"c":   {3, 1},
	}
	for name, w := range want {
		if g := got[name]; g.self != w.self || g.count != w.count {
			t.Errorf("%s: self %v over %d spans, want %v over %d", name, g.self, g.count, w.self, w.count)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.id(); id != 0 {
		t.Fatalf("nil tracer id = %d", id)
	}
	tr.add(1, 0, 0, "x", time.Now(), time.Now()) // must not panic
}
