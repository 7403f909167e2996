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
