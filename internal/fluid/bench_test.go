package fluid

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// populate builds a network shaped like the testbed's fluid background
// on a 2-leaf, 2-spine fabric: hosts virtual up/down resources, eight
// seam-coupled trunk ports, and flows strided across the hosts the way
// testbed.buildFluid strides them (cross-rack flows take four hops,
// intra-rack flows two).
func populate(hosts, flows int) *Network {
	net := New(testConfig())
	const racks, spines = 2, 2
	trunks := make([]ResourceID, 2*racks*spines)
	for i := range trunks {
		trunks[i] = net.AddResource("trunk", sim.Gbps(100), 1<<20, 80*1024)
		net.BindSeam(trunks[i], &scriptedSeam{mul: i + 1})
	}
	up := make([]ResourceID, hosts)
	down := make([]ResourceID, hosts)
	for v := 0; v < hosts; v++ {
		up[v] = net.AddResource("vup", sim.Gbps(100), 1<<20, 80*1024)
		down[v] = net.AddResource("vdown", sim.Gbps(100), 1<<20, 80*1024)
	}
	var buf [maxHops]ResourceID
	for j := 0; j < flows; j++ {
		src := j % hosts
		dst := (src + 1 + (j/hosts)%(hosts-1)) % hosts
		path := append(buf[:0], up[src])
		if a, b := src%racks, dst%racks; a != b {
			sp := dst % spines
			path = append(path, trunks[2*(a*spines+sp)], trunks[2*(b*spines+sp)+1])
		}
		net.AddFlow(append(path, down[dst])...)
	}
	return net
}

// BenchmarkFluidTick times one integration step of a 100k-flow network
// (the fluid-background workload's population) and reports the cost
// per flow per tick.
func BenchmarkFluidTick(b *testing.B) {
	const flows = 100_000
	net := populate(1000, flows)
	run(net, 200) // leave the start-up transient
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Tick(0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/flows, "ns/flow-tick")
}

// TestTickNoAlloc: the integrator allocates nothing per tick, however
// many flows it carries.
func TestTickNoAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-flow network")
	}
	net := populate(1000, 100_000)
	run(net, 10)
	if allocs := testing.AllocsPerRun(20, func() { net.Tick(0) }); allocs != 0 {
		t.Fatalf("Tick allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkRegistryDigests times one digest frame over a registry
// holding a 100k-flow network — the fluid-background workload's
// dominant component.
func BenchmarkRegistryDigests(b *testing.B) {
	net := populate(1000, 100_000)
	run(net, 10)
	reg := snapshot.NewRegistry()
	reg.Register("fluid", net)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digestSink = reg.Digests()
	}
}

// digestSink keeps the benchmarked Digests result live.
var digestSink []snapshot.Digest

// TestFluidDigestNoAlloc: digesting the fluid component allocates the
// same constant at 1k and 100k flows — the per-flow encoding streams
// into the hash instead of a state-sized image.
func TestFluidDigestNoAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-flow network")
	}
	allocs := func(hosts, flows int) float64 {
		reg := snapshot.NewRegistry()
		reg.Register("fluid", populate(hosts, flows))
		return testing.AllocsPerRun(5, func() { reg.Digests() })
	}
	if small, large := allocs(100, 1_000), allocs(1000, 100_000); large != small {
		t.Fatalf("Digests allocates %.0f times at 100k flows, %.0f at 1k", large, small)
	}
}
