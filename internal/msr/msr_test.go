package msr

import (
	"testing"

	"repro/internal/sim"
)

// onRead registers fn as a Read done handler that decodes the result.
func onRead(e *sim.Engine, fn func(v uint64, lat sim.Time, err error)) sim.HandlerID {
	return e.Handler(func(v, res uint64) {
		lat, err := ReadResult(res)
		fn(v, lat, err)
	})
}

func TestReadReturnsCounterValueAtRetire(t *testing.T) {
	e := sim.NewEngine(1)
	f := NewFile(e)
	counter := uint64(10)
	f.RegisterReader(IIOOccupancy, func() uint64 { return counter })
	// Counter advances while the read is in flight; the read must observe
	// the retire-time value.
	e.At(100, func() { counter = 99 })
	var got uint64
	var lat sim.Time
	f.Read(IIOOccupancy, onRead(e, func(v uint64, l sim.Time, _ error) { got, lat = v, l }))
	e.Run()
	if got != 99 {
		t.Fatalf("read value = %d, want retire-time 99", got)
	}
	if lat < readLatencyBase || lat > readLatencyMax {
		t.Fatalf("latency %v outside [%v, %v]", lat, readLatencyBase, readLatencyMax)
	}
}

func TestReadLatencyDistribution(t *testing.T) {
	e := sim.NewEngine(7)
	f := NewFile(e)
	f.RegisterReader(IIOInsertions, func() uint64 { return 0 })
	var lats []sim.Time
	var done sim.HandlerID
	done = onRead(e, func(_ uint64, l sim.Time, _ error) {
		lats = append(lats, l)
		if len(lats) < 2000 {
			f.Read(IIOInsertions, done)
		}
	})
	f.Read(IIOInsertions, done)
	e.Run()
	var sum sim.Time
	for _, l := range lats {
		if l < readLatencyBase || l > readLatencyMax {
			t.Fatalf("latency %v out of range", l)
		}
		sum += l
	}
	mean := float64(sum) / float64(len(lats))
	// Mean should be near base + tail mean (~580ns), clipped slightly.
	if mean < 500 || mean > 680 {
		t.Fatalf("mean read latency = %.0fns, want ~580ns", mean)
	}
}

// A failed read must stay distinguishable from a healthy read of value 0,
// and the fault counters must count only their own reads.
func TestFailedReadDistinctFromZero(t *testing.T) {
	e := sim.NewEngine(1)
	f := NewFile(e)
	f.RegisterReader(IIOOccupancy, func() uint64 { return 0 })
	var fault ReadFault
	f.SetReadFault(func(Address) ReadFault { return fault })
	type result struct {
		v   uint64
		lat sim.Time
		err error
	}
	var got []result
	done := onRead(e, func(v uint64, lat sim.Time, err error) { got = append(got, result{v, lat, err}) })
	f.Read(IIOOccupancy, done)
	e.Run()
	fault = ReadFault{Fail: true, ExtraLatency: 5 * sim.Microsecond}
	f.Read(IIOOccupancy, done)
	e.Run()
	fault = ReadFault{Stale: true}
	f.Read(IIOOccupancy, done)
	e.Run()
	if len(got) != 3 {
		t.Fatalf("%d reads retired, want 3", len(got))
	}
	if got[0].v != 0 || got[0].err != nil {
		t.Errorf("healthy read = (%d, %v), want (0, nil)", got[0].v, got[0].err)
	}
	if got[1].err != ErrReadFailed {
		t.Errorf("failed read err = %v, want ErrReadFailed", got[1].err)
	}
	if got[1].lat < readLatencyBase+5*sim.Microsecond {
		t.Errorf("failed read latency %v lost its injected 5us", got[1].lat)
	}
	if got[2].v != 0 || got[2].err != nil {
		t.Errorf("stale read = (%d, %v), want (0, nil)", got[2].v, got[2].err)
	}
	if f.FailedReads != 1 || f.StaleReads != 1 {
		t.Errorf("FailedReads, StaleReads = %d, %d, want 1, 1", f.FailedReads, f.StaleReads)
	}
}

func TestWriteLatencyAndValue(t *testing.T) {
	e := sim.NewEngine(1)
	f := NewFile(e)
	var applied uint64
	var appliedAt sim.Time
	f.RegisterWriter(MBAThrottle, 22*sim.Microsecond, func(v uint64) {
		applied = v
		appliedAt = e.Now()
	})
	doneAt := sim.Time(-1)
	f.Write(MBAThrottle, 3, func() { doneAt = e.Now() })
	e.Run()
	if applied != 3 {
		t.Fatalf("applied = %d", applied)
	}
	if appliedAt != 22*sim.Microsecond || doneAt != appliedAt {
		t.Fatalf("applied at %v, done at %v, want 22us", appliedAt, doneAt)
	}
}

func TestUnregisteredAccessPanics(t *testing.T) {
	e := sim.NewEngine(1)
	f := NewFile(e)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("read of unregistered register did not panic")
			}
		}()
		f.Read(Address(0xFFFF), onRead(e, func(uint64, sim.Time, error) {}))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("write to unregistered register did not panic")
			}
		}()
		f.Write(Address(0xFFFF), 0, nil)
	}()
	f.RegisterReader(IIOOccupancy, func() uint64 { return 0 })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate reader registration did not panic")
			}
		}()
		f.RegisterReader(IIOOccupancy, func() uint64 { return 0 })
	}()
}

func TestTSCAndHas(t *testing.T) {
	e := sim.NewEngine(1)
	f := NewFile(e)
	e.At(12345, func() {
		if f.ReadTSC() != 12345 {
			t.Errorf("TSC = %v", f.ReadTSC())
		}
	})
	e.Run()
	if f.Has(IIOOccupancy) {
		t.Error("Has reported unregistered register")
	}
	f.RegisterReader(IIOOccupancy, func() uint64 { return 0 })
	if !f.Has(IIOOccupancy) {
		t.Error("Has missed registered register")
	}
}
