package fluid

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// scriptedSeam replays a fixed, tick-indexed packet-tier load: the
// offered bytes and queue depth are pure functions of how many times the
// integrator has polled it, so the golden run below is reproducible
// without a packet engine.
type scriptedSeam struct {
	takes int
	mul   int // per-seam stride so the two seams disagree
}

func (s *scriptedSeam) TakePacketBytes() int64 {
	s.takes++
	if s.quiet() {
		return int64((s.takes * s.mul * 7919) % 6_000)
	}
	return int64((s.takes * s.mul * 7919) % 60_000)
}

func (s *scriptedSeam) PacketQueueBytes() int {
	if s.quiet() {
		return 0
	}
	return (s.takes * s.mul * 131) % (700 * 1024)
}

// quiet reports whether the script is in one of its idle phases, which
// alternate with busy ones every 500 polls.
func (s *scriptedSeam) quiet() bool { return (s.takes/500)%2 == 1 }

func (s *scriptedSeam) SetBackground(sim.Rate, int) {}

// goldenNetwork builds the network behind TestFluidGoldenDigest: two
// seam resources with scripted packet load, three virtual resources, one
// of which faults for a window, 40 background flows over 1–4 hop paths
// and four promotable flows that cross the faulted resource.
func goldenNetwork() *Network {
	cfg := testConfig()
	cfg.PromoteTicks = 3
	cfg.DemoteTicks = 5
	net := New(cfg)
	s1 := net.AddResource("seam/1", sim.Gbps(10), 1<<20, 80*1024)
	s2 := net.AddResource("seam/2", sim.Gbps(25), 1<<20, 80*1024)
	v1 := net.AddResource("v/1", sim.Gbps(10), 512*1024, 80*1024)
	v2 := net.AddResource("v/2", sim.Gbps(40), 1<<20, 80*1024)
	flaky := net.AddResource("flaky", sim.Gbps(10), 1<<20, 80*1024)
	net.BindSeam(s1, &scriptedSeam{mul: 1})
	net.BindSeam(s2, &scriptedSeam{mul: 3})

	for i := 0; i < 4; i++ {
		f := net.AddFlow(s1, flaky)
		net.SetPromotable(f, true)
	}
	paths := [][]ResourceID{{s1}, {s1, v1}, {v1, s2, v2}, {s2, v2, flaky, v1}, {v2}}
	for i := 0; i < 40; i++ {
		net.AddFlow(paths[i%len(paths)]...)
	}
	net.SetPromoteHooks(
		func(int, sim.Rate) {},
		func(i int) sim.Rate { return sim.Gbps(float64(1 + i%3)) },
	)
	return net
}

// goldenFluidDigests pins the fluid state digest at each checkpoint of
// TestFluidGoldenDigest. Recorded before the per-tick scratch moved out
// of the resource struct; any change to the integrator's arithmetic,
// order or encoding shows here even when two runs of the new code agree.
var goldenFluidDigests = []uint64{
	0x6cea3473989f9dc4, 0x5561887ecd5371ec, 0x7770b3e9239e4d34, 0x5cf4e5f87cec5f48,
}

// TestFluidGoldenDigest runs goldenNetwork through a fault window and
// out of it, and compares the snapshot digest at fixed ticks against
// digests recorded on an earlier revision. TestFluidDeterminism only
// compares two runs of the same code; this catches a change between
// revisions.
func TestFluidGoldenDigest(t *testing.T) {
	net := goldenNetwork()
	const flaky = 4
	var got []uint64
	for tick := 1; tick <= 4000; tick++ {
		net.SetFault(flaky, tick >= 200 && tick < 600)
		net.Tick(0)
		if tick%1000 == 0 {
			var e snapshot.Encoder
			net.Snapshot(&e)
			got = append(got, snapshot.HashBytes(e.Bytes()))
		}
	}
	if net.Promotions() == 0 || net.Demotions() == 0 {
		t.Fatalf("golden run made %d promotions / %d demotions, want both", net.Promotions(), net.Demotions())
	}
	for i, want := range goldenFluidDigests {
		if got[i] != want {
			t.Errorf("digest at tick %d = %#x, want %#x", (i+1)*1000, got[i], want)
		}
	}
}
