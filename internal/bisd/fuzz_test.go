package bisd

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/serial"
	"repro/internal/sram"
)

// FuzzBankRunner is the runner-level differential of the bit-sliced
// engine: the fuzz bytes decode into a small heterogeneous fleet, a
// random March program and random bankable faults per lane, and every
// lane's BankRunner report must equal the ProposedRunner report of a
// per-device fleet carrying that lane's faults — under both delivery
// orders. FuzzMemoryBank pins the bank's word operations; this pins
// the controller walk and the two datapaths around them.
//
// Layout: [memories] {[words] [width]}... [backgrounds] [elements]
// {[order] [ops] {[op]}...}... [lanes] {[faults] {[memory] [class]
// [victim] [aggressor]}...}... — missing bytes read as zero.
func FuzzBankRunner(f *testing.F) {
	// March C- over a 16x8 memory and an 8x3 one that wraps and takes
	// truncated backgrounds; stuck-at, transition and coupling faults
	// on two lanes.
	f.Add([]byte{
		1, 14, 7, 6, 2,
		0, 5,
		2, 0, 1,
		0, 1, 0, 5,
		0, 1, 4, 1,
		1, 1, 0, 5,
		1, 1, 4, 1,
		2, 0, 0,
		1,
		2, 0, 0, 0x37, 0, 1, 3, 0x21, 0,
		1, 0, 5, 0x45, 0x12,
	})
	// One 12x12 memory over three backgrounds: two per-background
	// elements, then an NWRC write and an inverting weak write after a
	// retention pause; DRFs and a coupling on the last of 64 lanes.
	bg := []byte{
		0, 10, 11,
		2, 3,
		2, 0, 1,
		0x08, 1, 0, 5,
		0x09, 1, 4, 1,
		0x12, 2, 2, 7, 0,
		63,
	}
	bg = append(bg, make([]byte, 63)...)
	bg = append(bg, 3, 0, 7, 0x23, 0, 0, 0x14, 0x35, 0x62, 0, 0x17, 0x51, 0)
	f.Add(bg)
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		next := func() int {
			if i >= len(data) {
				return 0
			}
			i++
			return int(data[i-1])
		}

		geoms := make([]geometry, next()%2+1)
		for m := range geoms {
			geoms[m] = geometry{n: next()%15 + 2, c: next()%12 + 1}
		}

		test := march.Test{Name: "fuzz", BackgroundCount: next()%4 + 1}
		elements := next()%6 + 1
		test.PerBackground = make([]bool, elements)
		for e := 0; e < elements; e++ {
			// Order byte: bits 0-1 the order (u/d/a/a), bit 3
			// per-background repetition, bit 4 a retention pause
			// before the element.
			ob := next()
			el := march.Element{Order: []march.Order{march.Up, march.Down, march.Any, march.Any}[ob&3]}
			if ob&0x10 != 0 {
				el.DelayMs = 100
			}
			test.PerBackground[e] = ob&0x08 != 0
			ops := next()%4 + 1
			for o := 0; o < ops; o++ {
				// Op byte: bits 0-1 the kind (r/w/n/k), bit 2 ~D.
				b := next()
				kind := []march.OpKind{march.Read, march.Write, march.WriteNWRC, march.WriteWeak}[b%4]
				el.Ops = append(el.Ops, march.Op{Kind: kind, Inverted: b&0x04 != 0})
			}
			test.Elements = append(test.Elements, el)
		}

		// faults[l][m] is lane l's fault list for memory m, in the
		// order a per-device Memory accepted them.
		lanes := next()%sram.BankLanes + 1
		faults := make([][][]fault.Fault, lanes)
		for l := range faults {
			faults[l] = make([][]fault.Fault, len(geoms))
			probe := make([]*sram.Memory, len(geoms))
			for m, g := range geoms {
				probe[m] = sram.New(g.n, g.c)
			}
			for k := next() % 4; k > 0; k-- {
				m := next() % len(geoms)
				ft := fuzzBankableFault(geoms[m], next(), next(), next())
				if probe[m].Inject(ft) == nil {
					faults[l][m] = append(faults[l][m], ft)
				}
			}
		}

		banks := make([]*sram.MemoryBank, len(geoms))
		for m, g := range geoms {
			banks[m] = sram.NewMemoryBank(g.n, g.c)
		}
		bankRunner, runner := NewBankRunner(), NewProposedRunner()
		for _, order := range []serial.Order{serial.MSBFirst, serial.LSBFirst} {
			opt := ProposedOptions{DeliveryOrder: order}
			for l := range faults {
				for m, b := range banks {
					if l == 0 {
						b.Reset()
					}
					if ok, err := b.LoadLane(l, faults[l][m]); !ok || err != nil {
						t.Fatalf("lane %d memory %d: LoadLane(%v) = %v, %v", l, m, faults[l][m], ok, err)
					}
				}
			}
			got, err := bankRunner.Run(banks, lanes, test, opt)
			if err != nil {
				t.Fatal(err)
			}
			for l := range faults {
				mems := make([]*sram.Memory, len(geoms))
				for m, g := range geoms {
					mems[m] = sram.New(g.n, g.c)
					for _, ft := range faults[l][m] {
						mustInject(t, mems[m], ft)
					}
				}
				want, err := runner.Run(mems, test, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[l], want) {
					t.Fatalf("%v, order %v, lane %d faults %v:\nbank:       %+v\nper-device: %+v",
						test, order, l, faults[l], got[l], want)
				}
			}
		}
	})
}

// fuzzBankableFault decodes a fault of a class MemoryBank.LoadLane
// accepts (everything but SOF/ADOF/CDF) from three program bytes.
func fuzzBankableFault(g geometry, d0, d1, d2 int) fault.Fault {
	classes := []fault.Class{
		fault.SA0, fault.SA1, fault.TFUp, fault.TFDown,
		fault.CFid, fault.CFin, fault.CFst, fault.DRF,
	}
	f := fault.Fault{
		Class:     classes[d0%len(classes)],
		Victim:    fault.Cell{Addr: d1 % g.n, Bit: (d1 >> 4) % g.c},
		Aggressor: fault.Cell{Addr: d2 % g.n, Bit: (d2 >> 4) % g.c},
		Value:     d0&0x10 != 0,
		AggState:  d0&0x20 != 0,
	}
	if d0&0x40 != 0 {
		f.Dir = fault.Down
	}
	return f
}
