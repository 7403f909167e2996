package testbed

import (
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/sim"
)

// TestShardedScaleOutDeterministic: a multi-shard run must be a pure
// function of its config despite the shards running on real goroutines —
// two executions produce identical digest timelines frame for frame
// (VerifyReplay runs the second execution and compares). This is the
// run-twice determinism bar for the parallel engine; byte-identity with
// the serial engine is deliberately not required (the shard boundaries
// legitimately reorder same-timestamp events across shards).
func TestShardedScaleOutDeterministic(t *testing.T) {
	shapes := []struct {
		name    string
		shards  int
		leaves  int
		spines  int
		senders int
		big     bool
	}{
		{"2-shards", 2, 2, 2, 8, false},
		{"4-shards", 4, 4, 2, 32, true},
	}
	for _, c := range shapes {
		t.Run(c.name, func(t *testing.T) {
			if c.big && testing.Short() {
				t.Skip("large shape")
			}
			r, err := RunScaleOut(ScaleOutConfig{
				Topology:     "leafspine",
				Leaves:       c.leaves,
				Spines:       c.spines,
				Senders:      c.senders,
				Shards:       c.shards,
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
			if r.ThroughputGbps <= 0 {
				t.Fatalf("no goodput through the sharded fabric: %s", r)
			}
			if r.Shards != c.shards {
				t.Fatalf("result reports %d shards, configured %d", r.Shards, c.shards)
			}
		})
	}
}

// TestShardedChaosAcceptance reruns the multi-switch rows of the chaos
// acceptance suite on a 4-shard engine: same bars — invariants hold,
// goodput recovers within budget, and the run is replay-deterministic.
// The per-shard injectors must fire the same fault windows the serial
// injector does (FaultEvents counts shard 0's log).
func TestShardedChaosAcceptance(t *testing.T) {
	cases := []struct {
		scenario string
		budget   int
	}{
		{"trunk-flap", 150},
		{"pfc-storm", 50},
		{"pause-loss", 150},
		{"congestion-spread", 50},
	}
	for _, c := range cases {
		t.Run(c.scenario, func(t *testing.T) {
			r, err := RunChaos(ChaosConfig{
				Scenario:          c.scenario,
				Seed:              7,
				Shards:            4,
				RecoveryRTTBudget: c.budget,
				VerifyReplay:      true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Violations) != 0 {
				t.Fatalf("invariant violations: %v", r.Violations)
			}
			if r.BaselineGbps < 30 {
				t.Fatalf("implausible baseline %.1f Gbps", r.BaselineGbps)
			}
			if !r.Recovered {
				t.Fatalf("did not recover to 90%% of %.1f Gbps within %d RTTs (final %.1f): %s",
					r.BaselineGbps, c.budget, r.FinalGbps, r.Scenario)
			}
			if r.FaultEvents == 0 {
				t.Error("no fault window transitions recorded — injector not armed?")
			}
			if !r.Verified {
				t.Error("replay verification failed: second execution diverged from the first")
			}
		})
	}
}

// TestShardedSentinelNoFalseStall: the sentinel runs from the coordinator
// in sharded mode, and shards parked at window barriers must read as
// waiting-on-lookahead, not as a wedged cycle — a healthy loaded run is
// never aborted.
func TestShardedSentinelNoFalseStall(t *testing.T) {
	o := DefaultConfig()
	o.Topology = fabric.LeafSpine(2, 2)
	o.Senders = 8
	o.Receivers = 2
	o.Flows = 8
	o.HostCC = true
	o.MinRTO = sim.Millisecond
	o.Shards = 2
	tb := New(o)
	defer tb.Close()
	tb.StartNetAppT()
	s := tb.StartSentinel(sim.SentinelConfig{
		Window: 500 * sim.Microsecond,
		Policy: sim.SentinelAbort,
	})
	tb.RunUntil(4 * sim.Millisecond)
	if s.Checks == 0 {
		t.Fatal("sentinel never checked — coordinator hook not driving it")
	}
	if rep := s.Report(); rep != nil {
		t.Fatalf("healthy sharded run flagged as stalled: %s", rep)
	}
	if tb.Now() != 4*sim.Millisecond {
		t.Fatalf("run aborted early at %v", tb.Now())
	}
}

// TestNewValidates: New is the one builder for serial and sharded runs,
// so every config Validate rejects must panic out of New with Validate's
// own message, at one engine and (where the config can shard) at two —
// including configs that would otherwise build (FaultTrunks on a star
// arms a plan with no flap links) or fail deep inside construction (an
// out-of-range storm trunk indexes past Fabric.TrunkPorts).
func TestNewValidates(t *testing.T) {
	flap := &faults.Plan{Name: "flap", Injections: []faults.Injection{
		faults.OneShot(faults.LinkFlap, sim.Millisecond, 100*sim.Microsecond),
	}}
	storm := &faults.Plan{Name: "storm", Injections: []faults.Injection{
		faults.OneShot(faults.PauseStorm, sim.Millisecond, 100*sim.Microsecond),
	}}
	leafspine := fabric.LeafSpine(2, 2)
	cases := []struct {
		name      string
		edit      func(o *Config)
		shardable bool // also try the config at Shards: 2
	}{
		{"star-sharded", func(o *Config) { o.Shards = 2 }, false},
		{"telemetry-sharded", func(o *Config) {
			o.Topology, o.Telemetry, o.Shards = leafspine, true, 2
		}, false},
		{"negative-shards", func(o *Config) { o.Shards = -1 }, false},
		{"fault-trunks-star", func(o *Config) { o.Faults, o.FaultTrunks = flap, true }, false},
		{"negative-degree", func(o *Config) { o.Topology, o.Degree = leafspine, -1 }, true},
		{"negative-warmup", func(o *Config) { o.Topology, o.Warmup = leafspine, -sim.Millisecond }, true},
		{"storm-trunk-range", func(o *Config) {
			o.Topology, o.Lossless, o.Faults, o.StormTrunks = leafspine, true, storm, []int{99}
		}, true},
	}
	for _, c := range cases {
		shardCounts := []int{0}
		if c.shardable {
			shardCounts = append(shardCounts, 2)
		}
		for _, shards := range shardCounts {
			name := c.name
			if c.shardable {
				name += fmt.Sprintf("/shards=%d", shards)
			}
			t.Run(name, func(t *testing.T) {
				o := DefaultConfig()
				o.Shards = shards
				c.edit(&o)
				want := o.Validate()
				if want == nil {
					t.Fatal("Validate accepted the config")
				}
				defer func() {
					r := recover()
					err, ok := r.(error)
					if !ok || err.Error() != want.Error() {
						t.Fatalf("New panicked with %v, want Validate's %q", r, want)
					}
				}()
				tb := New(o)
				tb.Close()
			})
		}
	}

	o := DefaultConfig()
	o.Topology = leafspine
	o.Shards = 2
	if err := o.Validate(); err != nil {
		t.Errorf("valid sharded config rejected: %v", err)
	}
}
