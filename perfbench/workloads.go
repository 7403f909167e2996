package main

import (
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// digestEvery is the digest-frame period of every workload: the period
// RunScaleOut records at, and the width of one traced window span.
const digestEvery = 500 * sim.Microsecond

// rpcSize is the NetApp-L request size of the star workload.
const rpcSize = 128

// workload is one fixed testbed shape. The seed is the only input that
// varies between invocations; every run of one invocation builds the
// same config.
type workload struct {
	name string
	// config builds the testbed config for seed. short shrinks the
	// simulated window for the benchmark's own smoke tests.
	config func(seed int64, short bool) testbed.Config
	// rpc starts a closed NetApp-L RPC loop beside the NetApp-T flows.
	rpc bool
}

var workloads = []workload{
	{
		// The paper's headline host (Fig. 10, Fig. 12 congested+hostcc):
		// every host-datapath module and the hostCC loop on one engine,
		// with the real 200 ms min-RTO's stale timers filling the heap.
		name: "star-hostcc",
		rpc:  true,
		config: func(seed int64, short bool) testbed.Config {
			c := testbed.DefaultConfig()
			c.Seed = seed
			c.Flows = 4
			c.Senders = 1
			c.Degree = 3
			c.HostCC = true
			c.DDIO = false
			c.Warmup, c.Measure = window(short, 6*sim.Millisecond, 60*sim.Millisecond)
			return c
		},
	},
	{
		// The scale-out shape: switch forwarding over 16 trunk
		// directions, 8 hostCC receivers, two shards.
		name: "leafspine-incast",
		config: func(seed int64, short bool) testbed.Config {
			c := testbed.DefaultConfig()
			c.Seed = seed
			c.Topology = fabric.Topology{Kind: fabric.TopoLeafSpine, Leaves: 4, Spines: 2}
			c.Senders = 128
			c.Receivers = 8
			c.Flows = 128
			c.Degree = 2
			c.HostCC = true
			c.MinRTO = sim.Millisecond
			c.Shards = 2
			c.Warmup, c.Measure = window(short, 2*sim.Millisecond, 8*sim.Millisecond)
			return c
		},
	},
	{
		// The hybrid tier: a small packet foreground under 100k fluid
		// background flows on 1,000 virtual hosts, two shards.
		name: "fluid-background",
		config: func(seed int64, short bool) testbed.Config {
			c := testbed.DefaultConfig()
			c.Seed = seed
			c.Topology = fabric.Topology{Kind: fabric.TopoLeafSpine, Leaves: 2, Spines: 2}
			c.Senders = 8
			c.Receivers = 2
			c.Flows = 8
			c.Degree = 2
			c.HostCC = true
			c.MinRTO = sim.Millisecond
			c.Shards = 2
			c.FluidBackground = &testbed.FluidBackground{Hosts: 1000, Flows: 100_000}
			c.Warmup, c.Measure = window(short, 2*sim.Millisecond, 8*sim.Millisecond)
			return c
		},
	},
}

// window returns the simulated warmup and measure lengths, cut to a
// quarter (at least one digest period each) for smoke runs.
func window(short bool, warmup, measure sim.Time) (sim.Time, sim.Time) {
	if short {
		return max(warmup/4, digestEvery), max(measure/4, digestEvery)
	}
	return warmup, measure
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
