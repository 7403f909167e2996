package testbed

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Registry builds the snapshot registry for this testbed: every stateful
// component, named and ordered along the datapath (engine first, then the
// receiver wire-to-app, then senders, fabric, hostCC, faults). Two runs
// built from identical Configs produce identical registries, which is what
// makes their digest timelines comparable — and makes FirstDivergence
// report the most upstream divergent component.
//
// Call after the testbed is fully composed (after StartMApp / fault
// arming), so every optional component is present.
func (tb *Testbed) Registry() *snapshot.Registry {
	reg := snapshot.NewRegistry()
	reg.Register("engine", tb.E)
	if tb.Group != nil {
		// Sharded runs serialize every shard's engine; "engine" stays shard
		// 0 (tb.E) so single- and multi-shard timelines share a prefix.
		for i := 1; i < tb.Group.Shards(); i++ {
			reg.Register(fmt.Sprintf("engine/s%d", i), tb.Group.Shard(i))
		}
	}
	for i, r := range tb.Receivers {
		prefix := "rx"
		if i > 0 {
			prefix = fmt.Sprintf("rx%d", i+1)
		}
		r.RegisterSnapshots(reg, prefix)
	}
	for i, s := range tb.Senders {
		s.RegisterSnapshots(reg, fmt.Sprintf("s%d", i+1))
	}
	// SwitchName keeps the star's historical component name ("switch")
	// and names multi-switch fabrics by role (leafN/spineN/swN).
	for i, sw := range tb.Fabric.Switches {
		reg.Register(tb.Fabric.SwitchName(i), sw)
	}
	for i, l := range tb.Links {
		reg.Register(fmt.Sprintf("link/%d", i), l)
	}
	for i, l := range tb.Trunks {
		reg.Register(fmt.Sprintf("trunk/%d", i), l)
	}
	for i, h := range tb.HCCs {
		name := "hostcc"
		if i > 0 {
			name = fmt.Sprintf("hostcc%d", i+1)
		}
		reg.Register(name, h)
	}
	if tb.FluidNet != nil {
		reg.Register("fluid", tb.FluidNet)
	}
	if tb.Injector != nil {
		reg.Register("faults", tb.Injector)
		// Sharded runs arm one injector per shard; shard 0's is "faults"
		// above, the rest get per-shard names.
		for i := 1; i < len(tb.Injectors); i++ {
			reg.Register(fmt.Sprintf("faults/s%d", i), tb.Injectors[i])
		}
	}
	return reg
}

// StartSentinel arms a liveness sentinel over the receiver datapath. The
// probes cover each stage that can wedge: application goodput, NIC DMA
// starts, PCIe TLP sends, and PCIe credit returns to the free pool (the
// Releases counter deliberately excludes sequestered credits, so a
// credit-stall fault reads as a flat probe, not fake progress). Demand is
// "packets are waiting in the NIC buffer or credits are hostage", so a
// drained testbed never trips it.
// In a sharded testbed the sentinel monitors the whole ShardGroup and is
// driven from a coordinator hook (every shard quiesced at the barrier, so
// probes may safely read any shard's state) instead of an engine ticker.
func (tb *Testbed) StartSentinel(cfg sim.SentinelConfig) *sim.Sentinel {
	var s *sim.Sentinel
	if tb.Group != nil {
		s = sim.NewSentinelOn(tb.Group, cfg)
		check := cfg.Check
		if check <= 0 {
			check = cfg.Window / 4
			if check <= 0 {
				check = 1
			}
		}
		tb.Group.Every(check, func() { s.Check() })
	} else {
		s = sim.NewSentinel(tb.E, cfg)
	}
	nic, link := tb.Receiver.NIC, tb.Receiver.Link
	s.AddProbe("goodput", func() uint64 {
		if tb.NetT == nil {
			return 0
		}
		return uint64(tb.NetT.DeliveredBytes())
	})
	s.AddProbe("nic-dma", func() uint64 { return uint64(nic.DMAStarted.Total()) })
	s.AddProbe("pcie-sent", func() uint64 { return uint64(link.Sent.Total()) })
	s.AddProbe("pcie-release", func() uint64 { return uint64(link.Releases.Total()) })
	s.SetDemand(func() bool {
		if nic.RxQueuedPackets() > 0 || link.SequesteredCredits() > 0 {
			return true
		}
		// Lossless fabrics add a demand source the host probes can't see:
		// frames parked behind a paused trunk port. Without this a pause
		// storm reads as benign quiescence once the host-side queues drain.
		if tb.Opts.Lossless {
			for _, tp := range tb.Fabric.TrunkPorts {
				if tp.Sw.PortPaused(tp.Port) && tp.Sw.PortQueueBytes(tp.Port) > 0 {
					return true
				}
			}
		}
		return false
	})
	s.SetGraphBuilder(tb.buildWaitGraph)
	s.SetEscape(func() bool { return link.ForceReclaim() > 0 })
	s.Start()
	return s
}

// buildWaitGraph captures who-waits-for-whom across the receive datapath
// at stall-detection time. The structural cycle — DMA needs credit lines,
// lines come back through the IIO completion path, and a credit-stall
// fault wedges that path while sequestering every returned line — is what
// lets the classifier tell a credit deadlock from plain starvation.
func (tb *Testbed) buildWaitGraph() *sim.WaitGraph {
	nic, link := tb.Receiver.NIC, tb.Receiver.Link
	queued := nic.RxQueuedPackets()
	waiting := nic.WaitingForCredits()
	credits := link.Credits()
	seq := link.SequesteredCredits()
	stalled := link.CreditStalled()
	var downLinks int
	for _, l := range tb.Links {
		if l.IsDown() {
			downLinks++
		}
	}
	for _, l := range tb.Trunks {
		if l.IsDown() {
			downLinks++
		}
	}

	g := sim.NewWaitGraph()
	g.AddNode("nic-dma", queued > 0, !waiting,
		fmt.Sprintf("%d packets queued, %d descriptors free", queued, nic.FreeDescriptors()))
	g.AddNode("pcie-credits", waiting || seq > 0, !waiting,
		fmt.Sprintf("%d/%d credit lines free, %d sequestered", credits, link.Config().CreditLines, seq))
	g.AddNode("iio-release", seq > 0, !stalled,
		fmt.Sprintf("credit return path stalled=%v, %d lines held", stalled, seq))
	g.AddNode("fabric", downLinks > 0, downLinks == 0,
		fmt.Sprintf("%d/%d links down", downLinks, len(tb.Links)+len(tb.Trunks)))

	g.AddEdge("nic-dma", "pcie-credits", "DMA engine needs TLP credit lines")
	g.AddEdge("pcie-credits", "iio-release", "lines return on IIO write completion")
	if stalled {
		g.AddEdge("iio-release", "pcie-credits", "release path sequesters returned lines")
	}
	if downLinks > 0 {
		g.AddEdge("fabric", "nic-dma", "deliveries blocked on down link")
	}

	// Lossless fabrics add one node per directed trunk port, tagged "pfc":
	// wedged when frames are queued behind an asserted pause. Edges follow
	// the buffer dependency — a paused port's frames can only drain through
	// the switch it feeds — so a pause loop across tiers closes into a
	// cycle of all-"pfc" nodes, which Classify names pfc-cycle (distinct
	// from the host's credit deadlock).
	if tb.Opts.Lossless {
		tps := tb.Fabric.TrunkPorts
		for _, tp := range tps {
			queued := tp.Sw.PortQueueBytes(tp.Port)
			paused := tp.Sw.PortPaused(tp.Port)
			g.AddNodeKind("trunk/"+tp.Name, "pfc", queued > 0, !paused,
				fmt.Sprintf("%d bytes queued, paused=%v", queued, paused))
		}
		for i, a := range tps {
			for j, b := range tps {
				if i != j && a.To == b.From {
					g.AddEdge("trunk/"+a.Name, "trunk/"+b.Name,
						"queued frames drain through the downstream switch")
				}
			}
		}
	}

	// A sharded run adds one node per shard, tagged "barrier". A shard
	// parked at a window barrier is waiting on lookahead, not wedged, so
	// the nodes are always Moving — the classifier reads a pure
	// barrier-wait graph as idle rather than a deadlock, even though the
	// neighbor-horizon edges form a cycle.
	if tb.Group != nil {
		n := tb.Group.Shards()
		for i := 0; i < n; i++ {
			e := tb.Group.Shard(i)
			g.AddNodeKind(fmt.Sprintf("shard/%d", i), "barrier", e.Pending() > 0, true,
				fmt.Sprintf("at barrier t=%.3fms, %d events pending", e.Now().Millis(), e.Pending()))
		}
		for i := 0; n > 1 && i < n; i++ {
			g.AddEdge(fmt.Sprintf("shard/%d", i), fmt.Sprintf("shard/%d", (i+1)%n),
				"window advance waits on neighbor horizon")
		}
	}
	return g
}
