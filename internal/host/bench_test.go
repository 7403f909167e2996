package host_test

// Datapath benchmarks: a minimal sender→receiver pair driven by one
// long flow, without hostCC or the MApp (their periodic samplers are
// closure-scheduled and would hide the datapath's allocation behavior).
// These are the before/after numbers for the allocation-free rewrite:
// every per-event and per-packet-hop structure on this path (events,
// packets, TLPs, segments, queue entries) is recycled, so a warm run
// must not allocate.

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/host"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/transport"
)

// pair is a two-host testbed reduced to the pure datapath.
type pair struct {
	e    *sim.Engine
	send *host.Host
	recv *host.Host
	pool *packet.Pool
}

func newPair(seed int64, mtu int, ddio bool) *pair {
	e := sim.NewEngine(seed)
	pool := packet.NewPool(1024)

	mk := func(id packet.HostID) *host.Host {
		cfg := host.DefaultConfig(id, mtu, ddio)
		cfg.Transport.MinRTO = 4 * sim.Millisecond
		cfg.Transport.InitialRTO = 4 * sim.Millisecond
		cfg.Pool = pool
		return host.New(e, cfg)
	}
	p := &pair{e: e, recv: mk(1), send: mk(2), pool: pool}

	lcfg := fabric.DefaultLinkConfig()
	up := fabric.NewLink(e, lcfg, p.recv.ReceiveFromWire)
	up.SetPool(pool)
	p.send.SetOutput(up.Send)
	down := fabric.NewLink(e, lcfg, p.send.ReceiveFromWire)
	down.SetPool(pool)
	p.recv.SetOutput(down.Send)
	return p
}

func (p *pair) startFlow() {
	p.recv.EP.Listen(9000, func(*transport.Conn) {})
	c := p.send.EP.DialFrom(20000, p.recv.ID(), 9000)
	c.SetInfiniteSource(true)
}

// BenchmarkDatapathStream runs the warm steady-state receive path —
// transport → NIC → PCIe → IIO → memory → RX cores → transport — and
// reports simulated events and packets per wall-second.
func BenchmarkDatapathStream(b *testing.B) {
	benchStream(b, false)
}

// BenchmarkDatapathStreamDDIO is the same path through the DDIO cache
// model (LLC writes, occupancy accounting, eviction probability).
func BenchmarkDatapathStreamDDIO(b *testing.B) {
	benchStream(b, true)
}

func benchStream(b *testing.B, ddio bool) {
	p := newPair(42, 4096, ddio)
	p.startFlow()
	p.e.RunFor(4 * sim.Millisecond) // warm: cwnd open, pools populated
	start := p.e.Processed
	arrivals := p.recv.NIC.Arrivals.Total()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.e.RunFor(100 * sim.Microsecond)
	}
	b.StopTimer()
	ev := float64(p.e.Processed-start) / float64(b.N)
	b.ReportMetric(ev, "events/op")
	b.ReportMetric(float64(p.recv.NIC.Arrivals.Total()-arrivals)/float64(b.N), "packets/op")
}

// TestDatapathZeroAllocSteadyState is the rewrite's end-to-end guard: a
// warm two-host stream must process events without allocating. The pool
// debug builds (-race, -tags packetdebug) add provenance bookkeeping, so
// the exact-zero assertion applies to production builds only.
func TestDatapathZeroAllocSteadyState(t *testing.T) {
	if packet.PoolDebugEnabled {
		t.Skip("pool provenance instrumentation allocates by design")
	}
	p := newPair(42, 4096, false)
	p.startFlow()
	p.e.RunFor(8 * sim.Millisecond)
	allocs := testing.AllocsPerRun(20, func() {
		p.e.RunFor(100 * sim.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("steady-state datapath allocates %.1f per 100µs slice; want 0", allocs)
	}
}
