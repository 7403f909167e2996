package main

import (
	"runtime"
	"strings"

	"repro/internal/apps"
	"repro/internal/fabric"
	"repro/internal/fluid"
	"repro/internal/telemetry"
	"repro/internal/testbed"
)

// resolvedConfig is the shape that actually ran, read back from the
// built testbed rather than from the requested config's raw fields.
type resolvedConfig struct {
	Topology      string  `json:"topology"`
	Leaves        int     `json:"leaves"`
	Spines        int     `json:"spines"`
	Switches      int     `json:"switches"`
	Trunks        int     `json:"trunks"`
	Shards        int     `json:"shards"`
	Senders       int     `json:"senders"`
	Receivers     int     `json:"receivers"`
	Flows         int     `json:"flows"`
	Degree        float64 `json:"degree"`
	HostCC        bool    `json:"hostcc"`
	DDIO          bool    `json:"ddio"`
	MinRTOus      float64 `json:"min_rto_us"`
	WarmupUs      float64 `json:"warmup_us"`
	MeasureUs     float64 `json:"measure_us"`
	DigestEveryUs float64 `json:"digest_every_us"`
	RPCBytes      int     `json:"rpc_bytes"`
	FluidHosts    int     `json:"fluid_hosts"`
	FluidFlows    int     `json:"fluid_flows"`
	Seed          int64   `json:"sim_seed"`
}

func resolve(tb *testbed.Testbed) resolvedConfig {
	o := tb.Opts
	racks := o.Topology.Racks()
	c := resolvedConfig{
		Topology:      o.Topology.Kind.String(),
		Switches:      len(tb.Fabric.Switches),
		Trunks:        len(tb.Trunks),
		Shards:        1,
		Senders:       len(tb.Senders),
		Receivers:     len(tb.Receivers),
		Flows:         len(tb.NetT.Conns()),
		Degree:        o.Degree,
		HostCC:        o.HostCC,
		DDIO:          o.DDIO,
		MinRTOus:      tb.Senders[0].EP.Config().MinRTO.Micros(),
		WarmupUs:      o.Warmup.Micros(),
		MeasureUs:     o.Measure.Micros(),
		DigestEveryUs: digestEvery.Micros(),
		Seed:          o.Seed,
	}
	if o.Topology.Kind == fabric.TopoLeafSpine {
		c.Leaves, c.Spines = racks, len(tb.Fabric.Switches)-racks
	}
	if tb.Group != nil {
		c.Shards = tb.Group.Shards()
	}
	if o.FluidBackground != nil {
		c.FluidHosts = o.FluidBackground.Hosts
	}
	if tb.FluidNet != nil {
		c.FluidFlows = tb.FluidNet.Flows()
	}
	return c
}

// takeCensus reads every per-layer count of a finished run from outside
// the simulator: exported getters and the testbed's instrument registry,
// summed across hosts. ms0 and ms1 bracket the run interval.
func takeCensus(tb *testbed.Testbed, rpc *apps.NetAppL, ms0, ms1 *runtime.MemStats) map[string]float64 {
	sum := func(suffix string) float64 { return sumInstruments(tb.Reg, "", suffix) }
	c := map[string]float64{}
	events := float64(tb.Processed())

	c["sim.events"] = events
	c["sim.max_pending"] = float64(tb.MaxPendingEvents())
	c["sim.heap_cap"] = float64(tb.EventHeapCap())

	c["shard.event_imbalance"] = 1
	if g := tb.Group; g != nil {
		c["shard.exchanged"] = float64(g.Exchanged())
		var most, total uint64
		for i := 0; i < g.Shards(); i++ {
			p := g.Shard(i).Processed
			most = max(most, p)
			total += p
		}
		if total > 0 {
			c["shard.event_imbalance"] = float64(most) * float64(g.Shards()) / float64(total)
		}
	}

	if n := tb.FluidNet; n != nil {
		c["fluid.flows"] = float64(n.Flows())
		c["fluid.ticks"] = float64(n.Ticks())
		c["fluid.promotions"] = float64(n.Promotions())
	}

	arrivals := sum("/nic/arrivals")
	c["nic.arrivals"] = arrivals
	c["nic.drop_frac"] = ratio(sum("/nic/drops"), arrivals)
	sent := sum("/pcie/sent")
	c["pcie.sent"] = sent
	c["pcie.credit_stall_frac"] = ratio(sum("/pcie/credit-stalls"), sent)
	c["iio.rins"] = sum("/iio/rins")
	c["mem.bytes_mapp"] = sum("/mem/bytes/mapp")
	c["mem.bytes_net"] = sum("/mem/bytes/iio") + sum("/mem/bytes/eviction") + sum("/mem/bytes/netcopy")
	c["cpu.mba_writes"] = sum("/mba/writes")
	c["core.samples"] = sum("/hostcc/samples")
	c["core.marked_frac"] = ratio(sum("/hostcc/marked"), sumInstruments(tb.Reg, "receiver", "/nic/arrivals"))
	c["transport.retx"] = sum("/transport/retransmits")
	c["transport.timeouts"] = sum("/transport/timeouts")
	if rpc != nil {
		c["apps.rpcs"] = float64(rpc.Completed())
	}

	c["fabric.switch_drops"] = float64(tb.Fabric.Drops())
	c["fabric.switch_marks"] = float64(tb.Fabric.Marks())
	c["fabric.trunk_idle_frac"] = trunkIdleFrac(tb.Reg)

	c["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	c["runtime.allocs_per_event"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), events)
	c["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	c["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	return c
}

// floorFrac is the share of fluid flows whose rate sits at the
// configured MinRate floor.
func floorFrac(n *fluid.Network) float64 {
	floor := n.Config().MinRate
	at := 0
	for i := 0; i < n.Flows(); i++ {
		if n.FlowRate(i) <= floor {
			at++
		}
	}
	return ratio(float64(at), float64(n.Flows()))
}

// sumInstruments sums every instrument whose name starts with prefix and
// ends with suffix.
func sumInstruments(reg *telemetry.Registry, prefix, suffix string) float64 {
	var s float64
	reg.Each(func(i *telemetry.Instrument) {
		if strings.HasPrefix(i.Name, prefix) && strings.HasSuffix(i.Name, suffix) {
			s += i.Value()
		}
	})
	return s
}

// trunkIdleFrac is the share of trunk directions that carried less than
// a tenth of the mean trunk bytes (0 without trunks).
func trunkIdleFrac(reg *telemetry.Registry) float64 {
	var bytes []float64
	var total float64
	reg.Each(func(i *telemetry.Instrument) {
		if strings.HasPrefix(i.Name, "fabric/trunk") && strings.HasSuffix(i.Name, "/bytes") {
			v := i.Value()
			bytes = append(bytes, v)
			total += v
		}
	})
	if len(bytes) == 0 {
		return 0
	}
	idle := 0
	for _, b := range bytes {
		if b < total/float64(len(bytes))/10 {
			idle++
		}
	}
	return float64(idle) / float64(len(bytes))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
