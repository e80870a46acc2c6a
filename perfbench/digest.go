package main

import (
	"hash/maphash"
	"math"

	"repro/memtest"
)

// hashSeed keys every digest in one process; digests are only compared
// within the run that made them.
var hashSeed = maphash.MakeSeed()

// digest is an order-sensitive 64-bit fingerprint.
type digest struct{ h uint64 }

func (d *digest) u64(v uint64) {
	d.h ^= v + 0x9e3779b97f4a7c15 + (d.h << 6) + (d.h >> 2)
	d.h *= 0xbf58476d1ce4e5b9
}

func (d *digest) int(v int)       { d.u64(uint64(v)) }
func (d *digest) float(v float64) { d.u64(math.Float64bits(v)) }
func (d *digest) str(s string)    { d.u64(maphash.String(hashSeed, s)) }
func (d *digest) bytes(b []byte)  { d.u64(maphash.Bytes(hashSeed, b)) }
func (d *digest) cells(cs []memtest.Cell) {
	d.int(len(cs))
	for _, c := range cs {
		d.int(c.Addr)
		d.int(c.Bit)
	}
}

// deviceDigest fingerprints every field of a DeviceResult that the
// benchmark's requests can produce (no repair budget is ever set, so
// Repair and Yield must stay nil). It costs a small fraction of JSON
// encoding, so the fleet workload can check every device without
// measuring an encoder it does not run.
func (d *digest) device(dr memtest.DeviceResult) {
	d.int(dr.Device)
	d.u64(uint64(dr.Seed))
	r := dr.Result
	if r == nil {
		d.int(-1)
		return
	}
	d.str(r.Engine)
	d.str(r.Scheme)
	d.str(r.Plan)
	d.int(btoi(r.Yield != nil))
	if rep := r.Report; rep != nil {
		d.str(rep.Scheme)
		d.u64(uint64(rep.Cycles))
		d.float(rep.ClockNs)
		d.float(rep.RetentionNs)
		d.int(rep.Iterations)
		d.int(len(rep.Memories))
		for _, m := range rep.Memories {
			d.int(m.Index)
			d.int(m.Words)
			d.int(m.Width)
			d.int(len(m.Failures))
			for _, f := range m.Failures {
				d.int(f.Memory)
				d.int(f.LogicalAddr)
				d.int(f.PhysicalAddr)
				d.int(f.Bit)
				d.int(f.Element)
				d.int(f.Background)
				d.int(f.Op)
			}
			d.cells(m.Located)
		}
	}
	d.int(len(r.Memories))
	for _, m := range r.Memories {
		d.str(m.Name)
		d.int(m.Words)
		d.int(m.Width)
		d.cells(m.Located)
		d.int(m.Injected)
		d.int(m.Detectable)
		d.int(m.TruthLocated)
		d.int(m.FalsePositives)
		d.int(btoi(m.Repair != nil))
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
