// Package msr models the model-specific-register interface through which
// hostCC observes the host (§4.1). Hardware counters — IIO occupancy
// (ROCC) and IIO insertions (RINS) — are exposed as cumulative registers;
// reading one costs ~600 ns, reading the TSC costs ~2 ns. Crucially, MSR
// reads execute on the processor interconnect, outside the NIC-to-memory
// datapath, so their latency is independent of host congestion — the
// property Figure 7 demonstrates and the reason IIO occupancy is usable
// as a congestion signal at all.
package msr

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// ErrReadFailed is reported by Read when the register access itself fails
// (on real hardware: a GP fault from rdmsr, a hung PECI transaction, or an
// uncore counter that stopped responding). Callers must distinguish a
// failed read from a merely slow one: a slow read still carries a valid
// counter snapshot, a failed read carries nothing.
var ErrReadFailed = errors.New("msr: register read failed")

// Address identifies a model-specific register.
type Address uint32

// Registers modeled in this reproduction.
const (
	// IIOOccupancy (ROCC) accumulates IIO buffer occupancy once per IIO
	// clock tick; average occupancy over [t1,t2] is
	// (ROCC(t2)-ROCC(t1)) / ((t2-t1) * F_IIO).
	IIOOccupancy Address = 0x0C00
	// IIOInsertions (RINS) counts cachelines inserted into the IIO; the
	// insertion rate times the cacheline size is PCIe bandwidth.
	IIOInsertions Address = 0x0C01
	// MBAThrottle selects the MBA throttle level for the MApp
	// class-of-service (see internal/cpu; writes take ~22 µs).
	MBAThrottle Address = 0x0D50
)

// FIIOHz is the IIO clock frequency (500 MHz on the paper's servers).
const FIIOHz = 500e6

// TickNanos is the IIO clock period in nanoseconds.
const TickNanos = 2

// Latency model constants for register access (§4.1).
const (
	TSCReadLatency  = 2 * sim.Nanosecond
	readLatencyBase = 450 * sim.Nanosecond
	readLatencyMean = 130 * sim.Nanosecond // exponential tail above base
	readLatencyMax  = 1200 * sim.Nanosecond
)

// ReadFault perturbs one register read (fault injection). The zero value
// is a healthy read.
type ReadFault struct {
	// ExtraLatency is added to the modeled read latency (interconnect
	// contention spike, SMI storm).
	ExtraLatency sim.Time
	// Stale makes the read return the value of the previous successful
	// read of the same register instead of a fresh snapshot (a counter
	// that stopped counting, or a cached PECI response).
	Stale bool
	// Fail makes the read complete with ErrReadFailed and no value.
	Fail bool
}

// File is the register file: a set of addressed counters with modeled
// access latency.
type File struct {
	e       *sim.Engine
	readers map[Address]func() uint64
	addrs   []Address // registered reader addresses, ascending (Snapshot order)
	writers map[Address]writer

	// retireH retires a pending read; the reads in flight wait in pending.
	retireH sim.HandlerID
	pending sim.Slots[pendingRead]

	// readFault, when set, is consulted on every Read (fault injection;
	// see internal/faults). It must be deterministic given engine state.
	readFault func(Address) ReadFault
	lastRead  map[Address]uint64 // last successfully returned values

	// FailedReads counts reads that completed with ErrReadFailed.
	FailedReads int64
	// StaleReads counts reads that returned a stale snapshot.
	StaleReads int64
}

type writer struct {
	latency sim.Time
	fn      func(uint64)
}

// pendingRead is one read in flight: its register, modeled latency, the
// fault drawn for it, and the handler that receives the result.
type pendingRead struct {
	addr        Address
	lat         sim.Time
	fail, stale bool
	done        sim.HandlerID
}

// NewFile returns an empty register file.
func NewFile(e *sim.Engine) *File {
	f := &File{
		e:        e,
		readers:  make(map[Address]func() uint64),
		writers:  make(map[Address]writer),
		lastRead: make(map[Address]uint64),
	}
	f.retireH = e.Handler(f.retire)
	return f
}

// SetReadFault installs the read-fault hook (nil removes it). The hook is
// invoked once per Read, before the read is scheduled.
func (f *File) SetReadFault(fn func(Address) ReadFault) { f.readFault = fn }

// RegisterReader attaches a counter provider to an address.
func (f *File) RegisterReader(addr Address, fn func() uint64) {
	if _, dup := f.readers[addr]; dup {
		panic(fmt.Sprintf("msr: duplicate reader for %#x", uint32(addr)))
	}
	f.readers[addr] = fn
	i, _ := slices.BinarySearch(f.addrs, addr)
	f.addrs = slices.Insert(f.addrs, i, addr)
}

// RegisterWriter attaches a write handler with a given write latency.
func (f *File) RegisterWriter(addr Address, latency sim.Time, fn func(uint64)) {
	if _, dup := f.writers[addr]; dup {
		panic(fmt.Sprintf("msr: duplicate writer for %#x", uint32(addr)))
	}
	f.writers[addr] = writer{latency: latency, fn: fn}
}

// readLatency draws one MSR read latency. The distribution is a base plus
// an exponential tail, matching the ~0.45–1.2 µs range of Figure 7, and
// does not depend on any datapath state.
func (f *File) readLatency() sim.Time {
	lat := readLatencyBase + sim.Time(f.e.Rand().ExpFloat64()*float64(readLatencyMean))
	if lat > readLatencyMax {
		lat = readLatencyMax
	}
	return lat
}

// Read samples the register. Once the read retires, handler done is
// dispatched with (val, res): val is the register value, captured at
// retire time (the counter keeps counting while the read executes), and
// res packs the read's modeled latency and outcome — decode it with
// ReadResult. A failed read carries val 0, and callers must not fold it
// into any signal state.
func (f *File) Read(addr Address, done sim.HandlerID) {
	if _, ok := f.readers[addr]; !ok {
		panic(fmt.Sprintf("msr: read of unregistered register %#x", uint32(addr)))
	}
	var fault ReadFault
	if f.readFault != nil {
		fault = f.readFault(addr)
	}
	lat := f.readLatency() + fault.ExtraLatency
	slot := f.pending.Put(pendingRead{addr: addr, lat: lat, fail: fault.Fail, stale: fault.Stale, done: done})
	f.e.ScheduleAfter(lat, f.retireH, slot, 0)
}

// retire completes a pending read; arg0 is its slot.
func (f *File) retire(slot, _ uint64) {
	r := f.pending.Take(slot)
	res := uint64(r.lat) << 1
	var v uint64
	switch {
	case r.fail:
		f.FailedReads++
		res |= 1
	case r.stale:
		f.StaleReads++
		v = f.lastRead[r.addr]
	default:
		v = f.readers[r.addr]()
		f.lastRead[r.addr] = v
	}
	f.e.Dispatch(r.done, v, res)
}

// ReadResult decodes the res argument a Read's done handler receives: the
// read's modeled latency, and nil for a healthy read or ErrReadFailed when
// the register access itself failed.
func ReadResult(res uint64) (lat sim.Time, err error) {
	if res&1 != 0 {
		err = ErrReadFailed
	}
	return sim.Time(int64(res) >> 1), err
}

// Write stores val to the register, invoking done (optional) when the
// write retires. MBA writes take ~22 µs (§4.2); ordinary MSR writes <1 µs.
func (f *File) Write(addr Address, val uint64, done func()) {
	w, ok := f.writers[addr]
	if !ok {
		panic(fmt.Sprintf("msr: write to unregistered register %#x", uint32(addr)))
	}
	f.e.After(w.latency, func() {
		w.fn(val)
		if done != nil {
			done()
		}
	})
}

// ReadTSC returns the current timestamp counter as simulated time. The
// ~2 ns cost is negligible and not modeled as an event; callers sampling
// at sub-µs granularity account for it via the MSR read latency instead.
func (f *File) ReadTSC() sim.Time { return f.e.Now() }

// Has reports whether a reader is registered at addr.
func (f *File) Has(addr Address) bool {
	_, ok := f.readers[addr]
	return ok
}
