package testbed

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Fluid-vs-packet validation tolerance, checked in with the tests that
// enforce it (the DESIGN.md hybrid-tier section documents the
// methodology). The fluid tier models only fabric serialization and
// AIMD dynamics — no host pipeline, no slow start, no per-packet
// timing — so the packet runs use DDIO (a non-DDIO receiver is
// host-limited near 65 Gbps, a regime the fluid tier deliberately does
// not model), per-bottleneck goodput is compared as a fraction of the
// shared bottleneck's line rate, and the two tiers must land within
// this absolute utilization distance of each other.
const fluidValidationTolUtil = 0.15

// fluidGoodputGbps runs a pure-fluid background population (no packet
// flows started) and returns per-bottleneck goodput in Gbps: warmup,
// then delivered-bytes delta over the measure window, divided across
// the identical destination bottlenecks.
func fluidGoodputGbps(t *testing.T, opts Config, bottlenecks int) float64 {
	t.Helper()
	tb := New(opts)
	defer tb.Close()
	tb.RunUntil(opts.Warmup)
	start := tb.FluidNet.DeliveredBytes()
	tb.RunFor(opts.Measure)
	delta := tb.FluidNet.DeliveredBytes() - start
	return delta * 8 / opts.Measure.Seconds() / 1e9 / float64(bottlenecks)
}

// packetGoodputGbps runs the matching packet-level population and
// returns NetApp-T goodput per bottleneck.
func packetGoodputGbps(t *testing.T, opts Config, bottlenecks int) float64 {
	t.Helper()
	tb := New(opts)
	defer tb.Close()
	tb.StartNetAppT()
	m := tb.RunWindow()
	return m.ThroughputGbps / float64(bottlenecks)
}

// TestFluidVsPacketValidation compares the fluid tier's converged
// per-bottleneck utilization against a pure packet run with the same
// flow fan-in, on the star and the dumbbell — the checked-in tolerance
// bands the tentpole's acceptance criterion names.
func TestFluidVsPacketValidation(t *testing.T) {
	link := sim.Gbps(100)
	cases := []struct {
		name        string
		packet      Config
		fluid       Config
		pktBN, flBN int // shared destination bottlenecks per tier
	}{
		{
			// Star: 4 flows fanning into one receiver down-link vs 8
			// fluid flows fanning 4-to-1 onto two virtual down-links.
			name: "star",
			packet: Config{
				DDIO: true, Senders: 4, Flows: 4, MinRTO: sim.Millisecond,
				Warmup: 4 * sim.Millisecond, Measure: 8 * sim.Millisecond,
			},
			fluid: Config{
				Senders: 1, Flows: 1,
				FluidBackground: &FluidBackground{Hosts: 2, Flows: 8},
				Warmup:          4 * sim.Millisecond, Measure: 8 * sim.Millisecond,
			},
			pktBN: 1, flBN: 2,
		},
		{
			// Dumbbell: cross-rack fan-in through the trunk vs fluid
			// flows alternating directions across the same trunk pair.
			name: "dumbbell",
			packet: Config{
				DDIO: true, Topology: fabric.Dumbbell(), Senders: 4, Receivers: 2, Flows: 4,
				MinRTO: sim.Millisecond,
				Warmup: 4 * sim.Millisecond, Measure: 8 * sim.Millisecond,
			},
			fluid: Config{
				Topology: fabric.Dumbbell(), Senders: 1, Flows: 1,
				FluidBackground: &FluidBackground{Hosts: 2, Flows: 8},
				Warmup:          4 * sim.Millisecond, Measure: 8 * sim.Millisecond,
			},
			pktBN: 1, flBN: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkt := packetGoodputGbps(t, tc.packet, tc.pktBN)
			fl := fluidGoodputGbps(t, tc.fluid, tc.flBN)
			pu, fu := pkt/link.Gbps(), fl/link.Gbps()
			t.Logf("packet %.1f Gbps (util %.2f), fluid %.1f Gbps (util %.2f)", pkt, pu, fl, fu)
			if d := fu - pu; d < -fluidValidationTolUtil || d > fluidValidationTolUtil {
				t.Fatalf("fluid utilization %.2f vs packet %.2f: outside ±%.2f band",
					fu, pu, fluidValidationTolUtil)
			}
		})
	}
}

// fluidChaosDigest builds a loaded dumbbell with promotable fluid flows
// and a trunk-flap fault window, runs it, and returns the digest
// timeline plus transition counts. The flap faults the trunk seam
// resources, so the promotable flows crossing them must promote during
// the window and demote after it clears.
func fluidChaosDigest(t *testing.T) (*snapshot.Timeline, uint64, uint64, uint64) {
	t.Helper()
	plan, err := faults.Builtin("trunk-flap", 3*sim.Millisecond, 600*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultConfig()
	opts.Topology = fabric.Dumbbell()
	opts.Senders = 2
	opts.Receivers = 2
	opts.Flows = 4
	opts.MinRTO = sim.Millisecond
	opts.FaultTrunks = true
	opts.Faults = &plan
	opts.FluidBackground = &FluidBackground{Hosts: 2, Flows: 8, Promotable: 2}
	opts.Warmup = 2 * sim.Millisecond
	opts.Measure = 6 * sim.Millisecond
	if err := opts.Validate(); err != nil {
		t.Fatal(err)
	}

	tb := New(opts)
	defer tb.Close()
	tb.StartNetAppT()
	rec := tb.RecordDigests(500 * sim.Microsecond)
	tb.RunWindow()
	tl, recd := rec.Stop()
	return tl, tb.FluidNet.Promotions(), tb.FluidNet.Demotions(), recd.Digest
}

// TestFluidPromoteDemoteDeterminism: a trunk-flap window promotes the
// promotable flows to packet twins and demotes them after recovery, and
// two identically configured runs reproduce the digest timeline —
// including the "fluid" component — frame for frame.
func TestFluidPromoteDemoteDeterminism(t *testing.T) {
	tl1, promos, demos, d1 := fluidChaosDigest(t)
	if promos == 0 {
		t.Fatal("trunk-flap window promoted no fluid flows")
	}
	if demos == 0 {
		t.Fatal("no fluid flow demoted after the fault cleared")
	}
	tl2, _, _, d2 := fluidChaosDigest(t)
	if div, found := snapshot.FirstDivergence(tl1, tl2); found {
		t.Fatalf("fluid chaos replay diverged: %s", div)
	}
	if d1 != d2 {
		t.Fatalf("final digests differ: %#016x vs %#016x", d1, d2)
	}
	if tl1.Len() == 0 {
		t.Fatal("no digest frames recorded")
	}
}

// TestFluidShardedReplay: the fluid tier rides the sharded testbed
// (coarse ticks at coordinator barriers) and stays digest-stable over a
// run-twice replay.
func TestFluidShardedReplay(t *testing.T) {
	res, err := RunScaleOut(ScaleOutConfig{
		Senders: 8, Receivers: 2, Flows: 8,
		Shards:     2,
		FluidHosts: 8, FluidPromotable: 2,
		Warmup: sim.Millisecond, Measure: 4 * sim.Millisecond,
		VerifyReplay: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("sharded fluid replay not verified")
	}
	if res.FluidFlows != 32 {
		t.Fatalf("fluid flows %d, want 32 (4 × FluidHosts)", res.FluidFlows)
	}
	if res.FluidGoodputGbps <= 0 {
		t.Fatalf("fluid goodput %.2f Gbps, want > 0", res.FluidGoodputGbps)
	}
}

// TestFluidSnapshotInRegistry: a testbed with the fluid tier registers
// the "fluid" component and its digest changes as the model advances.
func TestFluidSnapshotInRegistry(t *testing.T) {
	opts := DefaultConfig()
	opts.FluidBackground = &FluidBackground{Hosts: 2}
	tb := New(opts)
	defer tb.Close()
	reg := tb.Registry()
	before := snapshot.Combined(reg.Digests())
	tb.RunFor(sim.Millisecond)
	if tb.FluidNet.Ticks() == 0 {
		t.Fatal("fluid network never ticked")
	}
	if after := snapshot.Combined(reg.Digests()); after == before {
		t.Fatal("fluid state advanced but the registry digest did not change")
	}
}

// TestFluidMillionFlowScale is the tentpole's scale acceptance: 10k
// virtual background hosts carrying one million fluid flows across a
// 4-shard leaf–spine fabric, 5 ms of simulated time, completing in
// seconds of wall clock (versus hours for a packet-level population of
// that size). The packet-level subset's replay stability is pinned
// separately by TestFluidShardedReplay.
func TestFluidMillionFlowScale(t *testing.T) {
	if testing.Short() {
		t.Skip("million-flow scale run in -short mode")
	}
	res, err := RunScaleOut(ScaleOutConfig{
		Senders: 8, Receivers: 2, Flows: 8,
		Shards:     4,
		FluidHosts: 10_000, FluidFlows: 1_000_000,
		Warmup: sim.Millisecond, Measure: 4 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FluidFlows != 1_000_000 {
		t.Fatalf("fluid flows %d, want 1M", res.FluidFlows)
	}
	if res.FluidGoodputGbps <= 0 {
		t.Fatal("million-flow population delivered nothing")
	}
	if res.ThroughputGbps <= 0 {
		t.Fatal("packet foreground starved")
	}
}
