package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary, in the style of Dapper
// (Sigelman et al., 2010): a name, start and end, the span that caused
// it, and the op (one job or window) every span of one request shares.
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for the length of a run; write saves
// them when the run ends. A nil *tracer records nothing, so untraced
// phases pay one nil check per call site.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id allocates a span ID ahead of the span's end, so children started
// before their parent finishes can name it.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span; id 0 allocates a fresh one.
func (t *tracer) add(op, id, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.id()
	}
	s := span{Op: op, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is one span name's total self time and span count.
type selfTime struct {
	name  string
	self  time.Duration
	count int
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover. Children may overlap one
// another (parallel fleet workers), so coverage is the length of the
// union of the children's intervals, clipped to the parent.
func selfTimes(spans []span) []selfTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*selfTime{}
	for _, s := range spans {
		st := agg[s.Name]
		if st == nil {
			st = &selfTime{name: s.Name}
			agg[s.Name] = st
		}
		st.self += time.Duration(s.dur() - covered(s, children[s.ID]))
		st.count++
	}
	out := make([]selfTime, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// covered is the length of the union of the kids' intervals within
// parent p.
func covered(p span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// printSelfTimes prints the per-layer self-time table, per op.
func printSelfTimes(w io.Writer, lvl level, spans []span, ops int) {
	fmt.Fprintf(w, "span self time, %s level (%d spans over n=%d jobs):\n", lvl, len(spans), ops)
	for _, st := range selfTimes(spans) {
		fmt.Fprintf(w, "  %-22s %12.1f us/job  (n=%d spans)\n", st.name, ratio(float64(st.self)/1e3, float64(ops)), st.count)
	}
}
