package fabric

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// serial is the one-engine placement without packet recycling.
func serial(e *sim.Engine) Placement { return Placement{Engines: []*sim.Engine{e}} }

// groupPlacement spreads switches round-robin over the shards of g.
func groupPlacement(g *sim.ShardGroup) Placement {
	pl := Placement{Group: g, SwitchShard: func(i int) int { return i % g.Shards() }}
	for i := 0; i < g.Shards(); i++ {
		pl.Engines = append(pl.Engines, g.Shard(i))
		pl.Pools = append(pl.Pools, packet.NewPool(16))
	}
	return pl
}

// TestPlacementRejects: a placement the fabric cannot honor fails at
// build time with the mismatch named, before anything is constructed.
func TestPlacementRejects(t *testing.T) {
	sink := func(*packet.Packet) {}
	hosts := []HostPort{{ID: 1, Rack: 0, Deliver: sink}, {ID: 2, Rack: 1, Deliver: sink}}
	two := func() Placement { return groupPlacement(sim.NewShardGroup(1, 2)) }
	cases := []struct {
		name    string
		pl      func() Placement
		topo    Topology
		tr      *telemetry.Tracer
		wantErr string
	}{
		{"no-engines", func() Placement { return Placement{} }, LeafSpine(2, 2), nil, "switch 0 assigned to engine 0 outside [0,0)"},
		{"pool-count", func() Placement {
			pl := two()
			pl.Pools = pl.Pools[:1]
			return pl
		}, LeafSpine(2, 2), nil, "1 pools for 2 engines"},
		{"switch-shard-range", func() Placement {
			pl := two()
			pl.SwitchShard = func(i int) int { return i }
			return pl
		}, LeafSpine(2, 2), nil, "switch 2 assigned to engine 2 outside [0,2)"},
		{"switch-shard-negative", func() Placement {
			pl := serial(sim.NewEngine(1))
			pl.SwitchShard = func(int) int { return -1 }
			return pl
		}, Dumbbell(), nil, "engine -1 outside"},
		{"star-sharded", two, Star(), nil, "multi-switch topology, not star"},
		{"tracer-sharded", two, Dumbbell(), telemetry.NewTracer(), "tracer needs one engine, not 2"},
		{"cross-engine-no-group", func() Placement {
			pl := two()
			pl.Group = nil
			return pl
		}, Dumbbell(), nil, "need a ShardGroup"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			hp := hosts
			if c.topo.Kind == TopoStar {
				hp = hosts[:1]
			}
			_, err := Build(c.pl(), c.topo, DefaultLinkConfig(), hp, c.tr)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want mention of %q", err, c.wantErr)
			}
		})
	}
}

// TestPlacementRecordsOwners: every build fills the owner tables — all
// zero on one engine, the switch map (hosts and access links following
// their rack's switch, trunks their transmitting switch) on several.
func TestPlacementRecordsOwners(t *testing.T) {
	sink := func(*packet.Packet) {}
	var hosts []HostPort
	for i := 0; i < 8; i++ {
		hosts = append(hosts, HostPort{ID: packet.HostID(i + 1), Rack: i % 4, Deliver: sink})
	}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d-engines", shards), func(t *testing.T) {
			g := sim.NewShardGroup(1, shards)
			fb, err := Build(groupPlacement(g), LeafSpine(4, 2), DefaultLinkConfig(), hosts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(fb.SwitchShards) != 6 || len(fb.AccessShards) != 16 || len(fb.TrunkShards) != 16 {
				t.Fatalf("owner tables %d/%d/%d, want 6/16/16",
					len(fb.SwitchShards), len(fb.AccessShards), len(fb.TrunkShards))
			}
			for i, s := range fb.SwitchShards {
				if s != i%shards {
					t.Errorf("switch %d on engine %d, want %d", i, s, i%shards)
				}
			}
			for i, s := range fb.AccessShards {
				if want := fb.SwitchShards[hosts[i/2].Rack]; s != want {
					t.Errorf("access link %d on engine %d, want %d", i, s, want)
				}
			}
			for i, s := range fb.TrunkShards {
				if want := fb.SwitchShards[fb.TrunkPorts[i].From]; s != want {
					t.Errorf("trunk %d on engine %d, want %d", i, s, want)
				}
			}
		})
	}
}

// TestBuildRoutesMatchTrunkRoute: TrunkRoute is the routing truth the
// fluid tier reuses, so for every host pair the trunks a packet actually
// crosses must be exactly the ones it names, in any shape.
func TestBuildRoutesMatchTrunkRoute(t *testing.T) {
	for _, topo := range []Topology{LeafSpine(2, 2), LeafSpine(4, 2), Dumbbell()} {
		t.Run(fmt.Sprintf("%s-%dx%d", topo, topo.Racks(), topo.Switches()-topo.Racks()), func(t *testing.T) {
			e := sim.NewEngine(1)
			var hosts []HostPort
			for i := 0; i < 2*topo.Racks(); i++ {
				hosts = append(hosts, HostPort{ID: packet.HostID(i + 1), Rack: i % topo.Racks(),
					Deliver: func(*packet.Packet) {}})
			}
			fb, err := Build(serial(e), topo, DefaultLinkConfig(), hosts, nil)
			if err != nil {
				t.Fatal(err)
			}
			before := make([]int64, len(fb.Trunks))
			for i, src := range hosts {
				for _, dst := range hosts {
					if src.ID == dst.ID {
						continue
					}
					for k, tr := range fb.Trunks {
						before[k] = tr.Bytes.Total()
					}
					fb.HostSend(i)(dataPkt(dst.ID, 1000, packet.NotECT))
					e.Run()
					var crossed []int
					for k, tr := range fb.Trunks {
						if tr.Bytes.Total() != before[k] {
							crossed = append(crossed, k)
						}
					}
					hops, n := topo.TrunkRoute(src.Rack, dst.Rack, int(dst.ID))
					want := slices.Clone(hops[:n])
					slices.Sort(want)
					if !slices.Equal(crossed, want) {
						t.Errorf("host %d (rack %d) -> host %d (rack %d): crossed trunks %v, TrunkRoute says %v",
							src.ID, src.Rack, dst.ID, dst.Rack, crossed, want)
					}
				}
			}
		})
	}
}

// TestTrunkLayout: Trunks and TrunkPair name what Build creates — the
// trunk count, and for every leaf–spine link the up and down trunk by
// their switch names. The pfc-storm scenarios storm pair (1, 0) of the
// 2×1 fabric, which must be the sender rack's link to the only spine.
func TestTrunkLayout(t *testing.T) {
	build := func(topo Topology) *Fabric {
		var hosts []HostPort
		for i := 0; i < topo.Racks(); i++ {
			hosts = append(hosts, HostPort{ID: packet.HostID(i + 1), Rack: i, Deliver: func(*packet.Packet) {}})
		}
		fb, err := Build(serial(sim.NewEngine(1)), topo, DefaultLinkConfig(), hosts, nil)
		if err != nil {
			t.Fatal(err)
		}
		return fb
	}
	for _, topo := range []Topology{Star(), Dumbbell(), LeafSpine(2, 1), LeafSpine(2, 2), LeafSpine(4, 2), {Kind: TopoLeafSpine}} {
		fb := build(topo)
		if n := topo.Trunks(); n != len(fb.TrunkPorts) || n != len(fb.Trunks) {
			t.Errorf("%s %d racks: Trunks() = %d, Build made %d", topo, topo.Racks(), n, len(fb.TrunkPorts))
		}
		if topo.Kind != TopoLeafSpine {
			continue
		}
		spines := topo.Switches() - topo.Racks()
		for l := 0; l < topo.Racks(); l++ {
			for s := 0; s < spines; s++ {
				leaf, spine := fb.SwitchName(l), fb.SwitchName(topo.Racks()+s)
				up, down := topo.TrunkPair(l, s)
				if got := fb.TrunkPorts[up].Name; got != leaf+"->"+spine {
					t.Errorf("%dx%d TrunkPair(%d, %d) up = %s", topo.Racks(), spines, l, s, got)
				}
				if got := fb.TrunkPorts[down].Name; got != spine+"->"+leaf {
					t.Errorf("%dx%d TrunkPair(%d, %d) down = %s", topo.Racks(), spines, l, s, got)
				}
			}
		}
	}

	topo := LeafSpine(2, 1)
	fb := build(topo)
	up, down := topo.TrunkPair(1, 0)
	if got := []string{fb.TrunkPorts[up].Name, fb.TrunkPorts[down].Name}; !slices.Equal(got, []string{"leaf1->spine0", "spine0->leaf1"}) {
		t.Errorf("pfc-storm pair on 2x1 = %v, want [leaf1->spine0 spine0->leaf1]", got)
	}
}

// TestTrunkRouteNoAlloc: the fluid tier calls TrunkRoute once per flow
// at build time, so it must not allocate.
func TestTrunkRouteNoAlloc(t *testing.T) {
	topo := LeafSpine(4, 2)
	var sink int
	if n := testing.AllocsPerRun(100, func() {
		hops, k := topo.TrunkRoute(1, 3, 7)
		sink += hops[0] + k
	}); n != 0 {
		t.Fatalf("TrunkRoute allocates %v times per call", n)
	}
	_ = sink
}
