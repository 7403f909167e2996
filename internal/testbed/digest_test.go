package testbed

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// TestDigestsMatchEncodedState: for every component of a star testbed
// and a sharded leaf–spine testbed with a fluid background, the
// streamed Registry.Digests hash equals HashBytes over that component's
// blob in an EncodeAll image taken at the same instant.
func TestDigestsMatchEncodedState(t *testing.T) {
	fluidCfg := DefaultConfig()
	fluidCfg.Topology = fabric.Topology{Kind: fabric.TopoLeafSpine, Leaves: 2, Spines: 2}
	fluidCfg.Senders, fluidCfg.Receivers, fluidCfg.Flows = 4, 2, 4
	fluidCfg.Shards = 2
	fluidCfg.FluidBackground = &FluidBackground{Hosts: 16, Promotable: 2}
	for name, cfg := range map[string]Config{"star": DefaultConfig(), "fluid": fluidCfg} {
		tb := New(cfg)
		tb.StartNetAppT()
		tb.RunFor(sim.Millisecond)
		reg := tb.Registry()
		order, blobs, err := snapshot.DecodeState(reg.EncodeAll())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := reg.Digests()
		if len(got) != len(order) || len(got) < 2 {
			t.Fatalf("%s: %d digests for %d encoded components", name, len(got), len(order))
		}
		for i, d := range got {
			if d != order[i] || d.Hash != snapshot.HashBytes(blobs[d.Component]) {
				t.Errorf("%s/%s: streamed digest %#x, encoded blob hashes to %#x",
					name, d.Component, d.Hash, snapshot.HashBytes(blobs[d.Component]))
			}
		}
		if name == "fluid" && blobs["fluid"] == nil {
			t.Error("fluid testbed registered no fluid component")
		}
		tb.Close()
	}
}

// TestSnapshotDoesNotPerturb: taking snapshots is read-only. A run whose
// periodic hook encodes the whole registry and digests it must record
// the same digest timeline and final digest as a run whose hook at the
// same period does nothing — serially and on a 2-shard fluid testbed,
// where the hook runs at the coordinator barrier.
func TestSnapshotDoesNotPerturb(t *testing.T) {
	fluidCfg := DefaultConfig()
	fluidCfg.Topology = fabric.Topology{Kind: fabric.TopoLeafSpine, Leaves: 2, Spines: 2}
	fluidCfg.Senders, fluidCfg.Receivers, fluidCfg.Flows = 4, 2, 4
	fluidCfg.Shards = 2
	fluidCfg.FluidBackground = &FluidBackground{Hosts: 16, Promotable: 2}
	run := func(cfg Config, snap bool) (*snapshot.Timeline, uint64) {
		tb := New(cfg)
		defer tb.Close()
		tb.StartNetAppT()
		reg := tb.Registry()
		tl := &snapshot.Timeline{}
		tb.Every(100*sim.Microsecond, func() {
			tl.Append(snapshot.Frame{At: int64(tb.Now()), Events: tb.Processed(), Digests: reg.Digests()})
		})
		tb.Every(70*sim.Microsecond, func() {
			if snap {
				reg.EncodeAll()
				reg.Digests()
			}
		})
		tb.RunFor(sim.Millisecond)
		return tl, snapshot.Combined(reg.Digests())
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"star", DefaultConfig()}, {"fluid-2shard", fluidCfg}} {
		quiet, quietFinal := run(c.cfg, false)
		snapped, snappedFinal := run(c.cfg, true)
		if quiet.Len() < 5 {
			t.Fatalf("%s: only %d frames recorded", c.name, quiet.Len())
		}
		if err := snapshot.VerifyReplay(quiet, quietFinal, snapped, snappedFinal); err != nil {
			t.Errorf("%s: snapshotting perturbed the run: %v", c.name, err)
		}
	}
}
