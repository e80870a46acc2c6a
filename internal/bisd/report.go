// Package bisd implements the built-in self-diagnosis architectures the
// paper compares, at cycle accuracy:
//
//   - the proposed scheme (Fig. 3): a shared BISD controller (address
//     trigger, data background generator, control generator, comparator
//     array) with, local to each e-SRAM, an address generator, a
//     Serial-to-Parallel Converter on the write path and a Parallel-to-
//     Serial Converter on the read path;
//   - the baseline scheme of [7,8] (Fig. 1): the same shared controller
//     with a bi-directional serial cell interface per memory, which
//     identifies at most one fault per March element per direction and
//     therefore needs k iterations of its M1 element;
//   - the single-directional serial interface of [9,10], retained as a
//     second baseline to demonstrate serial fault masking.
//
// All memories are diagnosed in parallel; global cycle counts follow
// the widest/largest memory, as the paper's controller design does.
package bisd

import (
	"fmt"

	"repro/internal/fault"
)

// FailureRecord is one registered miscompare: the diagnosis information
// the scheme either stores for on-chip repair or scans out for off-line
// analysis (Sec. 3.1).
type FailureRecord struct {
	// Memory is the index of the e-SRAM in the fleet.
	Memory int `json:"memory"`
	// LogicalAddr is the controller-side address; PhysicalAddr is the
	// address inside the (possibly smaller, wrapped) memory.
	LogicalAddr  int `json:"logical_addr"`
	PhysicalAddr int `json:"physical_addr"`
	// Bit is the failing bit position.
	Bit int `json:"bit"`
	// Element and Background identify the March element execution;
	// Op is the read's index within the element's op list.
	Element    int `json:"element"`
	Background int `json:"background"`
	Op         int `json:"op"`
}

// String renders the record as a scan-out log line.
func (r FailureRecord) String() string {
	return fmt.Sprintf("mem %d addr %d(log %d) bit %d elem %d bg %d",
		r.Memory, r.PhysicalAddr, r.LogicalAddr, r.Bit, r.Element, r.Background)
}

// MemoryResult is the per-memory diagnosis outcome.
type MemoryResult struct {
	// Index is the memory's position in the fleet.
	Index int `json:"index"`
	// Words and Width are the memory geometry.
	Words int `json:"words"`
	Width int `json:"width"`
	// Failures are the registered miscompares in execution order.
	Failures []FailureRecord `json:"failures,omitempty"`
	// Located is the deduplicated, sorted set of failing cells.
	Located []fault.Cell `json:"located"`
}

// LocatedCell reports whether the cell is in the located set.
func (m MemoryResult) LocatedCell(c fault.Cell) bool {
	for _, l := range m.Located {
		if l == c {
			return true
		}
	}
	return false
}

// Report is the outcome of a fleet diagnosis run.
type Report struct {
	// Scheme names the architecture that produced the report.
	Scheme string `json:"scheme"`
	// Cycles is the total diagnosis clock cycle count (global, all
	// memories in parallel).
	Cycles int64 `json:"cycles"`
	// ClockNs is the diagnosis clock period t in nanoseconds.
	ClockNs float64 `json:"clock_ns"`
	// RetentionNs is wall-clock spent in retention pauses (delay-based
	// DRF testing); zero for the proposed NWRTM scheme.
	RetentionNs float64 `json:"retention_ns"`
	// Iterations is the number of M1 iterations the baseline needed
	// (its k); zero for the proposed scheme.
	Iterations int `json:"iterations"`
	// Memories holds per-memory results, fleet order.
	Memories []MemoryResult `json:"memories"`
}

// TimeNs is the total diagnosis time in nanoseconds: cycle time plus
// retention pauses.
func (r *Report) TimeNs() float64 {
	return float64(r.Cycles)*r.ClockNs + r.RetentionNs
}

// TotalLocated returns the number of located cells across the fleet.
func (r *Report) TotalLocated() int {
	n := 0
	for _, m := range r.Memories {
		n += len(m.Located)
	}
	return n
}

// collector gathers failure records and produces MemoryResults. Records
// accumulate in reusable per-memory scratch — the dedup map and direct
// result appends this replaces paid a hash plus amortized slice growth
// per record, which dominated the fleet batch path at tens of failures
// per device and tens of thousands of devices per second — and finish
// copies exact-size slices for the report to retain.
type collector struct {
	results []MemoryResult
	// recs is the failure-record scratch, execution order.
	recs [][]FailureRecord
	// cells is the located set: unique failing cells, insertion order,
	// sorted at finish. Uniqueness is a backwards linear scan — located
	// sets are tiny (roughly the device's fault count) and the same
	// cell fails in bursts, so the previous record usually matches
	// immediately.
	cells [][]fault.Cell
}

func newCollector(geoms []geometry) *collector {
	c := &collector{
		recs:  make([][]FailureRecord, len(geoms)),
		cells: make([][]fault.Cell, len(geoms)),
	}
	c.reset(geoms)
	return c
}

// reset prepares the collector for another run over the same fleet
// shape: the scratch is truncated in place, while the result structs
// are fresh — finish hands them to the report, which outlives the run.
func (c *collector) reset(geoms []geometry) {
	c.results = make([]MemoryResult, len(geoms))
	for i, g := range geoms {
		c.results[i] = MemoryResult{Index: i, Words: g.n, Width: g.c}
		c.recs[i] = c.recs[i][:0]
		c.cells[i] = c.cells[i][:0]
	}
}

type geometry struct{ n, c int }

// sized is a memory as the controller sees it: sram.Memory or
// sram.MemoryBank.
type sized interface {
	N() int
	C() int
}

// fleetGeometry computes the controller sizing (largest and widest
// memory, Sec. 3.1) and the per-memory geometries.
func fleetGeometry[M sized](mems []M) (nMax, cMax int, geoms []geometry) {
	geoms = make([]geometry, len(mems))
	for i, m := range mems {
		geoms[i] = geometry{n: m.N(), c: m.C()}
		nMax, cMax = max(nMax, m.N()), max(cMax, m.C())
	}
	return nMax, cMax, geoms
}

func (c *collector) record(rec FailureRecord) {
	c.recs[rec.Memory] = append(c.recs[rec.Memory], rec)
	c.recordCell(rec.Memory, fault.Cell{Addr: rec.PhysicalAddr, Bit: rec.Bit})
}

func (c *collector) recordCell(mem int, cell fault.Cell) {
	cs := c.cells[mem]
	for i := len(cs) - 1; i >= 0; i-- {
		if cs[i] == cell {
			return
		}
	}
	c.cells[mem] = append(cs, cell)
}

func (c *collector) finish() []MemoryResult {
	for i := range c.results {
		if n := len(c.recs[i]); n > 0 {
			fs := make([]FailureRecord, n)
			copy(fs, c.recs[i])
			c.results[i].Failures = fs
		}
		fault.SortCells(c.cells[i])
		// Never nil: an empty located set must still marshal as [].
		cells := make([]fault.Cell, len(c.cells[i]))
		copy(cells, c.cells[i])
		c.results[i].Located = cells
	}
	return c.results
}
