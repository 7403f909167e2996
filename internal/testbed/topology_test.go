package testbed

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// TestEventQueueMemory: the event queue grows on demand, so it must not
// keep more than a small multiple of the run's peak pending-event
// population, on any experiment shape — flow-heavy, sender-heavy and
// multi-switch, serial and sharded. The bound applies per shard: each
// shard's buckets grow from its own traffic.
func TestEventQueueMemory(t *testing.T) {
	shapes := []struct {
		name string
		big  bool // skipped in -short
		opts Config
	}{
		{"star-default", false, func() Config {
			o := DefaultConfig()
			o.Degree = 3
			o.HostCC = true
			return o
		}()},
		{"star-flow-heavy", false, func() Config {
			o := DefaultConfig()
			o.Senders = 2
			o.Flows = 256
			o.MinRTO = sim.Millisecond
			return o
		}()},
		{"leafspine-64", true, func() Config {
			o := DefaultConfig()
			o.Topology = fabric.LeafSpine(0, 0)
			o.Senders = 64
			o.Receivers = 4
			o.Flows = 64
			o.Degree = 2
			o.HostCC = true
			o.MinRTO = sim.Millisecond
			o.Warmup = 2 * sim.Millisecond
			o.Measure = 4 * sim.Millisecond
			return o
		}()},
		{"leafspine-64-sharded", true, func() Config {
			o := DefaultConfig()
			o.Topology = fabric.LeafSpine(4, 2)
			o.Senders = 64
			o.Receivers = 4
			o.Flows = 64
			o.Degree = 2
			o.HostCC = true
			o.MinRTO = sim.Millisecond
			o.Warmup = 2 * sim.Millisecond
			o.Measure = 4 * sim.Millisecond
			o.Shards = 4
			return o
		}()},
	}
	for _, c := range shapes {
		t.Run(c.name, func(t *testing.T) {
			if c.big && testing.Short() {
				t.Skip("large shape")
			}
			tb := New(c.opts)
			defer tb.Close()
			engines := []*sim.Engine{tb.E}
			if tb.Group != nil {
				engines = engines[:0]
				for i := 0; i < tb.Group.Shards(); i++ {
					engines = append(engines, tb.Group.Shard(i))
				}
			}
			tb.StartNetAppT()
			tb.RunWindow()
			for i, e := range engines {
				peak, capacity := e.MaxPending(), e.HeapCap()
				t.Logf("shard %d: peak %d pending, queue capacity %d", i, peak, capacity)
				if peak == 0 {
					t.Fatalf("shard %d never queued an event", i)
				}
				if capacity > 32*peak {
					t.Fatalf("shard %d event queue holds capacity for %d events at a peak of %d (>32x)",
						i, capacity, peak)
				}
			}
		})
	}
}

// TestScaleOutReplayDeterminism (leaf–spine and dumbbell): a scale-out
// run is a pure function of its config — the second run's digest
// timeline must match the first frame for frame. This is the 32-sender
// determinism bar for the map-iteration sweep: any map-ordered
// scheduling on the hot path diverges within a frame or two at this
// scale.
func TestScaleOutReplayDeterminism(t *testing.T) {
	topos := []string{"leafspine", "dumbbell"}
	senders := 32
	if testing.Short() {
		topos, senders = topos[:1], 8
	}
	for _, topo := range topos {
		t.Run(topo, func(t *testing.T) {
			r, err := RunScaleOut(ScaleOutConfig{
				Topology:     topo,
				Senders:      senders,
				Warmup:       1 * sim.Millisecond,
				Measure:      3 * sim.Millisecond,
				VerifyReplay: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Verified {
				t.Fatal("replay verification did not run")
			}
			if r.Frames == 0 {
				t.Fatal("no digest frames recorded")
			}
			if r.Trunks == 0 {
				t.Fatalf("%s fabric built no trunk links", topo)
			}
			if r.ThroughputGbps <= 0 {
				t.Fatalf("no goodput through the %s fabric: %s", topo, r)
			}
		})
	}
}

// TestScaleOutSeedChangesOutcome: the seed must actually perturb a
// multi-switch run (RNG plumbed through the topology build).
func TestScaleOutSeedChangesOutcome(t *testing.T) {
	run := func(seed int64) uint64 {
		r, err := RunScaleOut(ScaleOutConfig{
			Topology: "leafspine",
			Senders:  8,
			Seed:     seed,
			Warmup:   1 * sim.Millisecond,
			Measure:  2 * sim.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.Digest
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical final digests")
	}
}

// goldenTopologyFile pins the final-state digests of one fixed
// scale-out run per multi-switch topology, the analogue of the chaos
// golden recordings for the routed fabric. Regenerate (only on an
// intentional behaviour change) with:
//
//	UPDATE_GOLDEN=1 go test ./internal/testbed -run TestTopologyGoldenDigests
const goldenTopologyFile = "testdata/golden_topology_digests.txt"

func goldenScaleOutConfig(topo string) ScaleOutConfig {
	return ScaleOutConfig{
		Topology:  topo,
		Senders:   16,
		Receivers: 2,
		Flows:     16,
		Seed:      goldenSeed,
		Warmup:    1 * sim.Millisecond,
		Measure:   3 * sim.Millisecond,
	}
}

// TestTopologyGoldenDigests runs a fixed leaf–spine and dumbbell
// scale-out configuration and compares every component digest against
// the recorded goldens — the routed-fabric determinism anchor future
// refactors must preserve.
func TestTopologyGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	var got strings.Builder
	for _, topo := range []string{"leafspine", "dumbbell"} {
		r, err := RunScaleOut(goldenScaleOutConfig(topo))
		if err != nil {
			t.Fatalf("scale-out %s: %v", topo, err)
		}
		if r.Frames == 0 {
			t.Fatalf("scale-out %s: no digest frames recorded", topo)
		}
		fmt.Fprintf(&got, "topology=%s senders=%d receivers=%d flows=%d seed=%d frames=%d combined=%#016x\n",
			r.Topology, r.Senders, r.Receivers, r.Flows, r.Seed, r.Frames, r.Digest)
		for _, d := range r.ComponentDigests {
			fmt.Fprintf(&got, "  %s=%#016x\n", d.Component, d.Hash)
		}
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenTopologyFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("recorded topology golden digests")
		return
	}

	want, err := os.ReadFile(goldenTopologyFile)
	if err != nil {
		t.Fatalf("no golden recording (%v); run with UPDATE_GOLDEN=1 to create", err)
	}
	if got.String() == string(want) {
		return
	}
	gs := bufio.NewScanner(strings.NewReader(got.String()))
	ws := bufio.NewScanner(strings.NewReader(string(want)))
	line := 0
	for {
		gok, wok := gs.Scan(), ws.Scan()
		line++
		if !gok && !wok {
			break
		}
		if gs.Text() != ws.Text() {
			t.Fatalf("digest divergence at line %d:\n  recorded: %s\n  got:      %s",
				line, ws.Text(), gs.Text())
		}
		if gok != wok {
			t.Fatalf("digest recording length changed at line %d", line)
		}
	}
	t.Fatal("digest recordings differ (whitespace only?)")
}

// TestStarTopologyIsDefault: an explicit star Topology must behave
// exactly like the zero value — same construction, same digests.
func TestStarTopologyIsDefault(t *testing.T) {
	run := func(topo fabric.Topology) Metrics {
		opts := DefaultConfig()
		opts.Topology = topo
		opts.Degree = 2
		opts.HostCC = true
		opts.Warmup = 2 * sim.Millisecond
		opts.Measure = 3 * sim.Millisecond
		tb := New(opts)
		tb.StartNetAppT()
		return tb.RunWindow()
	}
	if a, b := run(fabric.Topology{}), run(fabric.Star()); a != b {
		t.Fatalf("explicit star differs from zero-value topology:\n%+v\n%+v", a, b)
	}
}

// TestCrossRackIncast: the headline multi-switch experiment — incast
// across the spine into hostCC-equipped receivers — must move traffic
// over every trunk (cross-rack placement working) and keep hostCC's
// marking active at the receivers.
func TestCrossRackIncast(t *testing.T) {
	opts := DefaultConfig()
	opts.Topology = fabric.LeafSpine(0, 0)
	opts.Senders = 16
	opts.Receivers = 2
	opts.Flows = 16
	opts.Degree = 2
	opts.HostCC = true
	opts.MinRTO = sim.Millisecond
	opts.Warmup = 1 * sim.Millisecond
	opts.Measure = 3 * sim.Millisecond
	tb := New(opts)
	tb.StartNetAppT()
	m := tb.RunWindow()
	if m.ThroughputGbps <= 0 {
		t.Fatalf("no cross-rack goodput: %+v", m)
	}
	for i, trunk := range tb.Trunks {
		if trunk.Bytes.Total() == 0 {
			t.Errorf("trunk %d carried no bytes — routing not crossing the spine", i)
		}
	}
	if len(tb.Receivers) != 2 || len(tb.HCCs) != 2 {
		t.Fatalf("expected 2 receivers with hostCC, got %d/%d", len(tb.Receivers), len(tb.HCCs))
	}
}
