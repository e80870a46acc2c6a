package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// The metric and workload names BENCHMARK.json declares are exactly the
// ones the benchmark emits.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	var shapeNames []string
	for _, s := range shapes {
		shapeNames = append(shapeNames, s.name)
	}
	same(t, "workloads", names, shapeNames)

	e := &env{sh: shapes[0], nproc: 2}
	p := &phase{}
	ref := &reference{}
	gated, _ := e2eMetrics(e, p, []float64{1}, ref, verdict{})
	layers, _ := layerMetrics(e, p, map[level]*phase{levelFleet: p}, ref)
	sameMetrics(t, "end_to_end", cfg.EndToEnd, gated)
	sameMetrics(t, "per_layer", cfg.PerLayer, layers)
}

func sameMetrics(t *testing.T, what string, declared []struct{ Name, Unit string }, emitted []metric) {
	t.Helper()
	units := map[string]string{}
	var a, b []string
	for _, m := range declared {
		a = append(a, m.Name)
		units[m.Name] = m.Unit
	}
	for _, m := range emitted {
		b = append(b, m.name)
		if u, ok := units[m.name]; ok && u != m.unit {
			t.Errorf("%s %s: unit %q declared, %q emitted", what, m.name, u, m.unit)
		}
	}
	same(t, what, a, b)
}

func same(t *testing.T, what string, a, b []string) {
	t.Helper()
	sort.Strings(a)
	sort.Strings(b)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("%s: declared %s\nemitted %s", what, ja, jb)
	}
}
