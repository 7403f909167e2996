package testbed

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// TestTestbedZeroAllocSteadyState guards the whole host datapath at once:
// the star-hostcc benchmark shape (MApp at 3x, hostCC on, NetApp-T flows
// beside a closed NetApp-L RPC loop) must run a warm 100µs slice without
// a single allocation. The pool debug builds (-race, -tags packetdebug)
// add provenance bookkeeping, so the exact-zero assertion applies to
// production builds only.
func TestTestbedZeroAllocSteadyState(t *testing.T) {
	if packet.PoolDebugEnabled {
		t.Skip("pool provenance instrumentation allocates by design")
	}
	c := DefaultConfig()
	c.Seed = 1
	c.Flows = 4
	c.Senders = 1
	c.Degree = 3
	c.HostCC = true
	c.DDIO = false
	tb := New(c)
	tb.StartNetAppT()
	tb.StartNetAppL(128, 0, nil)
	tb.RunFor(6 * sim.Millisecond)
	allocs := testing.AllocsPerRun(20, func() {
		tb.RunFor(100 * sim.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("steady-state testbed allocates %.1f per 100µs slice; want 0", allocs)
	}
}
