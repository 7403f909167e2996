package testbed

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// LosslessStudyConfig parameterizes the lossless-fabric study: a PFC +
// DCQCN leaf–spine fabric under congestion-spreading load (MApp pressure
// at every receiver squeezes the NIC buffers, and on a lossless fabric
// the NICs' pause backpressure climbs the access links into the leaves,
// pausing innocent cross-rack flows). The study runs the identical load
// twice — hostCC off, then hostCC on — and reports per-arm pause-storm
// metrics and the victim NetApp-L flow's tail latency. The paper's
// claim, transplanted to RoCE-style fabrics: throttling the MApp at the
// host keeps the NIC buffer from filling, so the congestion spreading
// never starts.
type LosslessStudyConfig struct {
	// Leaves / Spines size the leaf–spine fabric (0 = 2 each).
	Leaves, Spines int
	// Senders / Receivers / Flows shape the load (0 = 8 senders, 2
	// receivers, one flow per sender).
	Senders   int
	Receivers int
	Flows     int

	Seed int64
	// Degree of MApp host congestion at every receiver (0 = 3x — the
	// squeeze that fills the lossless NIC buffer).
	Degree float64

	// RPCSize / RPCCount shape the victim NetApp-L flow (0 = 16 KiB,
	// 200 RPCs).
	RPCSize  int
	RPCCount int

	// Warmup / Measure bound the run (0 = 2 ms / 8 ms).
	Warmup  sim.Time
	Measure sim.Time

	// PauseWatchdog arms the PFC watchdog in both arms (0 = off).
	PauseWatchdog sim.Time
}

func (c LosslessStudyConfig) withDefaults() LosslessStudyConfig {
	if c.Leaves == 0 {
		c.Leaves = 2
	}
	if c.Spines == 0 {
		c.Spines = 2
	}
	if c.Senders == 0 {
		c.Senders = 8
	}
	if c.Receivers == 0 {
		c.Receivers = 2
	}
	if c.Flows == 0 {
		c.Flows = c.Senders
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Degree == 0 {
		c.Degree = 3
	}
	if c.RPCSize == 0 {
		c.RPCSize = 16 << 10
	}
	if c.RPCCount == 0 {
		c.RPCCount = 200
	}
	if c.Warmup == 0 {
		c.Warmup = 2 * sim.Millisecond
	}
	if c.Measure == 0 {
		c.Measure = 8 * sim.Millisecond
	}
	return c
}

// LosslessArm is one arm (hostCC off or on) of the lossless study.
type LosslessArm struct {
	HostCC bool

	// Aggregate NetApp-T goodput over the measurement window.
	ThroughputGbps float64

	// Pause-storm metrics, summed across every switch in the fabric:
	// pause frames emitted, output-port pause assertions (the storm
	// frequency), watchdog force-releases, and the total time the trunk
	// ports spent pause-gated (spreading that escaped the access links).
	PauseFrames      int64
	PauseAsserts     int64
	WatchdogReleases int64
	TrunkPausedUs    float64

	// Receiver-NIC lossless metrics: pauses asserted up the access link
	// (congestion starting to spread), headroom-exhaustion drops (the
	// lossless guarantee failing), and CNPs generated (DCQCN feedback).
	NICPauseAsserts  int64
	NICHeadroomDrops int64
	CNPs             int64

	// Victim NetApp-L tail latency (µs) over RPCCount recorded RPCs.
	VictimP50us     float64
	VictimP99us     float64
	VictimP999us    float64
	VictimCompleted int
}

// String renders one arm as a table row.
func (a LosslessArm) String() string {
	mode := "hostcc-off"
	if a.HostCC {
		mode = "hostcc-on"
	}
	return fmt.Sprintf(
		"%-10s %7.1f Gbps  pause: asserts=%-5d frames=%-5d wdog=%-3d trunk-paused=%8.1fus  nic: pauses=%-4d drops=%-3d cnps=%-5d  victim p50=%7.1fus p99=%8.1fus p99.9=%8.1fus n=%d",
		mode, a.ThroughputGbps,
		a.PauseAsserts, a.PauseFrames, a.WatchdogReleases, a.TrunkPausedUs,
		a.NICPauseAsserts, a.NICHeadroomDrops, a.CNPs,
		a.VictimP50us, a.VictimP99us, a.VictimP999us, a.VictimCompleted)
}

// LosslessStudyResult pairs the two arms.
type LosslessStudyResult struct {
	Off LosslessArm
	On  LosslessArm
}

// String renders the comparison, one arm per line.
func (r LosslessStudyResult) String() string {
	return r.Off.String() + "\n" + r.On.String()
}

// RunLosslessStudy executes both arms of the lossless study. Identical
// config, identical load; only Config.HostCC differs between arms.
func RunLosslessStudy(cfg LosslessStudyConfig) (LosslessStudyResult, error) {
	cfg = cfg.withDefaults()
	off, err := runLosslessArm(cfg, false)
	if err != nil {
		return LosslessStudyResult{}, err
	}
	on, err := runLosslessArm(cfg, true)
	if err != nil {
		return LosslessStudyResult{}, err
	}
	return LosslessStudyResult{Off: off, On: on}, nil
}

// runLosslessArm is one execution: lossless leaf–spine fabric, NetApp-T
// background load across the racks, MApp squeeze at every receiver, and
// one recorded NetApp-L victim flow.
func runLosslessArm(cfg LosslessStudyConfig, hostCC bool) (LosslessArm, error) {
	opts := DefaultConfig()
	opts.Seed = cfg.Seed
	opts.Lossless = true
	opts.PauseWatchdog = cfg.PauseWatchdog
	opts.Topology = fabric.Topology{Kind: fabric.TopoLeafSpine, Leaves: cfg.Leaves, Spines: cfg.Spines}
	opts.Senders = cfg.Senders
	opts.Receivers = cfg.Receivers
	opts.Flows = cfg.Flows
	opts.Degree = cfg.Degree
	opts.HostCC = hostCC
	opts.Warmup = cfg.Warmup
	opts.Measure = cfg.Measure
	// Pause storms park flows, not RTO backoff; keep recovery prompt.
	opts.MinRTO = sim.Millisecond
	if err := opts.Validate(); err != nil {
		return LosslessArm{}, err
	}

	tb := New(opts)
	tb.StartNetAppT()
	l := tb.StartNetAppL(cfg.RPCSize, 0, nil)

	tb.E.RunUntil(cfg.Warmup)
	l.SetRecording(true)
	tb.MarkWindow()
	deadline := tb.E.Now() + cfg.Measure
	for tb.E.Now() < deadline && int(l.Latency.Count()) < cfg.RPCCount {
		tb.E.RunFor(sim.Millisecond)
	}
	m := tb.Collect()

	arm := LosslessArm{HostCC: hostCC, ThroughputGbps: m.ThroughputGbps}
	for _, sw := range tb.Fabric.Switches {
		arm.PauseFrames += sw.PauseFrames.Total()
		arm.PauseAsserts += sw.PauseAsserts.Total()
		arm.WatchdogReleases += sw.WatchdogReleases.Total()
	}
	for _, tp := range tb.Fabric.TrunkPorts {
		arm.TrunkPausedUs += float64(tp.Sw.PortPausedFor(tp.Port)) / float64(sim.Microsecond)
	}
	for _, h := range tb.Receivers {
		arm.NICPauseAsserts += h.NIC.PauseAsserts.Total()
		arm.NICHeadroomDrops += h.NIC.HeadroomDrops.Total()
		arm.CNPs += h.NIC.CNPsSent.Total()
	}
	h := l.Latency
	arm.VictimP50us = h.Quantile(0.50) / 1000
	arm.VictimP99us = h.Quantile(0.99) / 1000
	arm.VictimP999us = h.Quantile(0.999) / 1000
	arm.VictimCompleted = int(h.Count())
	return arm, nil
}
