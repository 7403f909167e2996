package fabric

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TopologyKind selects the fabric shape compiled by Build.
type TopologyKind int

const (
	// TopoStar is the paper's setup: every host on one switch.
	TopoStar TopologyKind = iota
	// TopoLeafSpine is a two-tier Clos: hosts attach to leaf switches,
	// leaves interconnect through spines over trunk links. Cross-rack
	// traffic picks its spine statically by destination host (ECMP-style
	// hashing, deterministic).
	TopoLeafSpine
	// TopoDumbbell is two switches joined by one trunk pair — the classic
	// shared-bottleneck CC evaluation shape.
	TopoDumbbell
)

// String returns the name accepted by ParseTopologyKind.
func (k TopologyKind) String() string {
	switch k {
	case TopoStar:
		return "star"
	case TopoLeafSpine:
		return "leafspine"
	case TopoDumbbell:
		return "dumbbell"
	}
	return fmt.Sprintf("TopologyKind(%d)", int(k))
}

// ParseTopologyKind parses a topology name ("star", "leafspine",
// "dumbbell").
func ParseTopologyKind(name string) (TopologyKind, error) {
	switch name {
	case "star", "":
		return TopoStar, nil
	case "leafspine", "leaf-spine":
		return TopoLeafSpine, nil
	case "dumbbell":
		return TopoDumbbell, nil
	}
	return 0, fmt.Errorf("fabric: unknown topology %q (want star, leafspine or dumbbell)", name)
}

// Topology describes a fabric to compile with Build. The zero value is
// the single-switch star.
type Topology struct {
	Kind TopologyKind

	// Leaves and Spines shape the leaf–spine fabric (ignored otherwise;
	// zero values default to 2 leaves × 2 spines).
	Leaves int
	Spines int

	// Switch parameterizes every switch. The zero value selects
	// DefaultSwitchConfig.
	Switch SwitchConfig

	// Trunk parameterizes the inter-switch links. The zero value inherits
	// the access-link config passed to Build.
	Trunk LinkConfig
}

// Star returns the single-switch topology (the default).
func Star() Topology { return Topology{Kind: TopoStar} }

// LeafSpine returns a two-tier Clos with the given shape (0 defaults to
// 2 leaves × 2 spines).
func LeafSpine(leaves, spines int) Topology {
	return Topology{Kind: TopoLeafSpine, Leaves: leaves, Spines: spines}
}

// Dumbbell returns the two-switch shared-bottleneck topology.
func Dumbbell() Topology { return Topology{Kind: TopoDumbbell} }

// Racks returns how many distinct host attachment points (HostPort.Rack
// values) the topology offers.
func (t Topology) Racks() int {
	switch t.Kind {
	case TopoLeafSpine:
		if t.Leaves == 0 {
			return 2
		}
		return t.Leaves
	case TopoDumbbell:
		return 2
	}
	return 1
}

// Switches returns how many switches Build will create.
func (t Topology) Switches() int {
	switch t.Kind {
	case TopoLeafSpine:
		return t.Racks() + t.spines()
	case TopoDumbbell:
		return 2
	}
	return 1
}

// Trunks returns how many directed trunks (Fabric.Trunks and TrunkPorts
// entries) Build will create: an up and a down trunk per leaf–spine pair,
// one per direction on the dumbbell, none on the star.
func (t Topology) Trunks() int {
	switch t.Kind {
	case TopoLeafSpine:
		return 2 * t.Racks() * t.spines()
	case TopoDumbbell:
		return 2
	}
	return 0
}

// TrunkPair returns the trunk indices of one leaf–spine link: up from
// leaf to spine, and down from spine to leaf. Build creates the pairs
// leaf-major, so leaf l's trunk to spine s is pair l*spines+s.
func (t Topology) TrunkPair(leaf, spine int) (up, down int) {
	up = 2 * (leaf*t.spines() + spine)
	return up, up + 1
}

func (t Topology) spines() int {
	if t.Spines == 0 {
		return 2
	}
	return t.Spines
}

// String returns the topology's kind name.
func (t Topology) String() string { return t.Kind.String() }

// Validate reports the first invalid topology parameter. Zero values are
// not errors — Build fills defaults — so this catches only parameters no
// default can repair.
func (t Topology) Validate() error {
	switch t.Kind {
	case TopoStar, TopoLeafSpine, TopoDumbbell:
	default:
		return fmt.Errorf("fabric: unknown topology kind %d", int(t.Kind))
	}
	if t.Leaves < 0 || t.Spines < 0 {
		return fmt.Errorf("fabric: negative leaf–spine shape %dx%d", t.Leaves, t.Spines)
	}
	if t.Kind == TopoLeafSpine && t.Leaves == 1 {
		return fmt.Errorf("fabric: leaf–spine needs at least 2 leaves")
	}
	if t.Kind == TopoDumbbell && (t.Leaves != 0 || t.Spines != 0) {
		return fmt.Errorf("fabric: dumbbell shape is fixed at 2 switches; leaves/spines %dx%d must be zero",
			t.Leaves, t.Spines)
	}
	if t.Switch != (SwitchConfig{}) {
		if err := t.Switch.Validate(); err != nil {
			return err
		}
	}
	if t.Trunk != (LinkConfig{}) {
		if err := t.Trunk.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// HostPort is one host's attachment to the fabric: its ID, the rack
// (leaf index) it lives in, and its wire-delivery function. Pause, when
// non-nil and the fabric is built with PFC enabled, receives the leaf
// switch's XOFF/XON toward this host (wire it to the host NIC's transmit
// pause).
type HostPort struct {
	ID      packet.HostID
	Rack    int
	Deliver func(*packet.Packet)
	Pause   func(bool)
}

// TrunkPort locates one directed trunk's transmitting port: the switch
// that owns the output port, the switch indices it connects (into
// Fabric.Switches), and a display name like "leaf0->spine1". Parallel to
// Fabric.Trunks.
type TrunkPort struct {
	Sw       *Switch
	Port     PortID
	From, To int
	Name     string
}

// hostPortRef locates the leaf output port facing one host.
type hostPortRef struct {
	sw   *Switch
	port PortID
}

// Fabric is a compiled topology: switches, per-host access links and
// inter-switch trunks, with forwarding tables installed.
type Fabric struct {
	Topo Topology
	// Switches in deterministic order: leaves (rack order) first, then
	// spines.
	Switches []*Switch
	// Access holds every host access link, up link before down link, in
	// host order — the layout testbed.Links has always had.
	Access []*Link
	// Trunks holds the inter-switch links: for leaf–spine, the
	// (leaf→spine, spine→leaf) pair for each leaf×spine in row-major
	// order; for the dumbbell, the left→right and right→left pair.
	Trunks []*Link
	// TrunkPorts locates the transmitting switch port of each trunk,
	// index-parallel to Trunks (pause injection and instrumentation).
	TrunkPorts []TrunkPort

	// SwitchShards, AccessShards and TrunkShards record which engine of
	// the placement owns each switch, access link and trunk link
	// (index-parallel to Switches, Access and Trunks; all 0 on a serial
	// run). A component must be mutated — fault injection included — only
	// from its owning engine.
	SwitchShards []int
	AccessShards []int
	TrunkShards  []int

	sends       []func(*packet.Packet)
	hostPorts   []hostPortRef
	accessDelay sim.Time
}

// HostSend returns the transmit function of host i (index into the hosts
// slice given to Build) — wire this into host.SetOutput.
func (f *Fabric) HostSend(i int) func(*packet.Packet) { return f.sends[i] }

// HostPauser returns a pause-assertion function for host i's leaf port:
// calling it models the host NIC emitting a PFC pause frame upstream,
// which (after the access link's flight time) gates the leaf's queue
// toward that host. Wire it into the NIC's rx-buffer pause hook. Only
// meaningful on a PFC-enabled fabric.
func (f *Fabric) HostPauser(i int) func(bool) {
	ref := f.hostPorts[i]
	delay := f.accessDelay
	return func(on bool) { ref.sw.PausePortFrom(ref.port, delay, on) }
}

// Drops sums drop-tail losses across every switch.
func (f *Fabric) Drops() int64 {
	var n int64
	for _, s := range f.Switches {
		n += s.Drops.Total()
	}
	return n
}

// Marks sums CE marks across every switch.
func (f *Fabric) Marks() int64 {
	var n int64
	for _, s := range f.Switches {
		n += s.Marks.Total()
	}
	return n
}

// SwitchName returns the display name of switch i: "switch" for the
// single-switch star (matching the pre-topology testbed), otherwise
// "leafN"/"spineN" ("swN" for the dumbbell).
func (f *Fabric) SwitchName(i int) string {
	switch f.Topo.Kind {
	case TopoLeafSpine:
		if i < f.Topo.Racks() {
			return fmt.Sprintf("leaf%d", i)
		}
		return fmt.Sprintf("spine%d", i-f.Topo.Racks())
	case TopoDumbbell:
		return fmt.Sprintf("sw%d", i)
	}
	return "switch"
}

// Placement says which engine each fabric component runs on. A serial
// run is the one-engine placement; a sharded run spreads the switches
// (and the hosts of each rack) over the engines of a ShardGroup, and
// every trunk whose two ends land on different engines becomes a shard
// boundary.
type Placement struct {
	// Engines are the engines components are built on (at least one).
	Engines []*sim.Engine
	// Pools holds one packet pool per engine: each link recycles into
	// its own engine's pool (a pool is only ever touched by its engine,
	// and Pool.Put adopts packets allocated elsewhere). nil disables
	// recycling.
	Pools []*packet.Pool
	// SwitchShard maps a switch index (into Fabric.Switches) to an
	// engine index; a host runs on its rack's switch's engine. nil
	// places everything on engine 0.
	SwitchShard func(i int) int
	// Group couples the engines. It is needed only when a trunk's two
	// ends land on different engines.
	Group *sim.ShardGroup
}

// TrunkRoute returns the trunks (indices into Fabric.Trunks and
// TrunkPorts) that a packet for destination dst crosses from rack src to
// rack dstRack, in hop order; n is 0 within a rack. The leaf–spine picks
// its spine by destination ID (deterministic ECMP: all traffic to one
// destination takes one spine), the dumbbell has one trunk per
// direction. It is the routing rule Build installs, shared with the
// fluid tier.
func (t Topology) TrunkRoute(src, dstRack, dst int) (hops [2]int, n int) {
	if src == dstRack {
		return hops, 0
	}
	switch t.Kind {
	case TopoLeafSpine:
		sp := dst % t.spines()
		up, _ := t.TrunkPair(src, sp)
		_, down := t.TrunkPair(dstRack, sp)
		return [2]int{up, down}, 2
	case TopoDumbbell:
		return [2]int{src}, 1
	}
	return hops, 0
}

// Build compiles the topology onto the placement's engines: switches
// are created leaves-first, hosts attach in slice order (up link, then
// down link, then switch port — the exact construction order of the
// pre-topology star, so star digests are unchanged), trunks attach after
// the hosts, and static shortest-path routes are installed last. The
// construction makes no engine calls beyond handler registration, so it
// is digest-deterministic.
//
// A trunk whose ends land on different engines exports its propagation
// delay as lookahead (Link.BindBoundary); PFC pause propagation across
// it rides its own control boundary with the same delay, so the pause
// frame's flight time is preserved and the lookahead is unchanged. The
// star has no trunks to cut and so must run on one engine, as must a
// tracer (a shared tracer would be written from every engine).
func Build(pl Placement, topo Topology, access LinkConfig, hosts []HostPort, tr *telemetry.Tracer) (*Fabric, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if err := access.Validate(); err != nil {
		return nil, err
	}
	engines := len(pl.Engines)
	if pl.Pools != nil && len(pl.Pools) != engines {
		return nil, fmt.Errorf("fabric: %d pools for %d engines", len(pl.Pools), engines)
	}
	if engines > 1 && topo.Kind == TopoStar {
		return nil, fmt.Errorf("fabric: %d engines need a multi-switch topology, not star", engines)
	}
	if engines > 1 && tr != nil {
		return nil, fmt.Errorf("fabric: a tracer needs one engine, not %d", engines)
	}
	swShard := pl.SwitchShard
	if swShard == nil {
		swShard = func(int) int { return 0 }
	}
	for i := 0; i < topo.Switches(); i++ {
		s := swShard(i)
		if s < 0 || s >= engines {
			return nil, fmt.Errorf("fabric: switch %d assigned to engine %d outside [0,%d)", i, s, engines)
		}
		if s0 := swShard(0); s != s0 && pl.Group == nil {
			return nil, fmt.Errorf("fabric: switches on engines %d and %d need a ShardGroup for their trunks", s0, s)
		}
	}
	pools := pl.Pools
	if pools == nil {
		pools = make([]*packet.Pool, engines)
	}
	swcfg := topo.Switch
	if swcfg == (SwitchConfig{}) {
		swcfg = DefaultSwitchConfig()
	}
	trunkCfg := topo.Trunk
	if trunkCfg == (LinkConfig{}) {
		trunkCfg = access
	}
	racks := topo.Racks()
	seen := make(map[packet.HostID]bool, len(hosts))
	for i, h := range hosts {
		if h.Rack < 0 || h.Rack >= racks {
			return nil, fmt.Errorf("fabric: host %d rack %d outside [0,%d)", h.ID, h.Rack, racks)
		}
		if h.ID == 0 {
			return nil, fmt.Errorf("fabric: host at index %d has zero ID", i)
		}
		if seen[h.ID] {
			return nil, fmt.Errorf("fabric: duplicate host ID %d", h.ID)
		}
		seen[h.ID] = true
	}
	pfcOn := swcfg.PFC.Enabled
	if pfcOn {
		// A "lossless" fabric with too little headroom silently loses
		// packets after XOFF — reject the configuration rather than let
		// the contradiction surface as unexplained drops.
		const maxFrame = 9216 // jumbo-frame allowance
		for _, lc := range []struct {
			name string
			cfg  LinkConfig
		}{{"access", access}, {"trunk", trunkCfg}} {
			if need := headroomFor(lc.cfg, maxFrame); swcfg.PFC.HeadroomBytes < need {
				return nil, fmt.Errorf("fabric: PFC HeadroomBytes %d below the %d needed for lossless %s links (2xBDP + frames)",
					swcfg.PFC.HeadroomBytes, need, lc.name)
			}
		}
	}

	f := &Fabric{
		Topo:         topo,
		sends:        make([]func(*packet.Packet), len(hosts)),
		accessDelay:  access.Delay,
		AccessShards: make([]int, 0, 2*len(hosts)),
	}
	names := make([]string, topo.Switches())
	for i := range names {
		names[i] = f.SwitchName(i)
		sw := NewSwitch(pl.Engines[swShard(i)], swcfg)
		if tr != nil {
			sw.SetTracer(tr, names[i])
		}
		f.Switches = append(f.Switches, sw)
		f.SwitchShards = append(f.SwitchShards, swShard(i))
	}
	leaves := f.Switches[:racks]

	// Host access links, in host order. A host lives on its rack's
	// engine, so both access links are engine-local (never boundaries).
	// With PFC on, the up link's delivery is ingress-tracked so the leaf
	// can XOFF the host NIC, and the leaf's port toward the host is
	// recorded so the NIC can pause the leaf in turn (HostPauser).
	for i, h := range hosts {
		sw := leaves[h.Rack]
		shard := swShard(h.Rack)
		e := pl.Engines[shard]
		var up *Link
		if pfcOn {
			pauseNIC := h.Pause
			if pauseNIC == nil {
				pauseNIC = func(bool) {}
			}
			ig := sw.NewIngress(fmt.Sprintf("host%d", h.ID), access.Delay, pauseNIC)
			up = NewLink(e, access, func(p *packet.Packet) { sw.InjectFrom(ig, p) })
		} else {
			up = NewLink(e, access, sw.Inject)
		}
		up.SetPool(pools[shard])
		down := NewLink(e, access, h.Deliver)
		down.SetPool(pools[shard])
		port := sw.AttachPort(h.ID, down)
		f.hostPorts = append(f.hostPorts, hostPortRef{sw: sw, port: port})
		f.sends[i] = up.Send
		f.Access = append(f.Access, up, down)
		f.AccessShards = append(f.AccessShards, shard, shard)
	}

	// trunk wires one directed inter-switch link from switch a to switch
	// b: the link lives on a's engine and — when the ends straddle
	// engines — delivery crosses a boundary. With PFC on, b tracks the
	// trunk as an ingress whose XOFF pauses a's port (pause propagation
	// across tiers, the loop a pfc-cycle verdict names); across engines
	// that pause rides back over its own boundary.
	trunk := func(a, b int) {
		sa, sb := swShard(a), swShard(b)
		aSw, bSw := f.Switches[a], f.Switches[b]
		var ig *Ingress
		var ln *Link
		if pfcOn {
			ln = NewLink(pl.Engines[sa], trunkCfg, func(p *packet.Packet) { bSw.InjectFrom(ig, p) })
		} else {
			ln = NewLink(pl.Engines[sa], trunkCfg, bSw.Inject)
		}
		ln.SetPool(pools[sa])
		port := aSw.AttachTrunk(ln)
		if sa != sb {
			ln.BindBoundary(pl.Group, sa, sb)
		}
		if pfcOn {
			if sa == sb {
				ig = bSw.NewIngress(names[a], trunkCfg.Delay,
					func(on bool) { aSw.PortPause(port, on) })
			} else {
				// The pause frame crosses back over its own boundary with the
				// trunk's flight delay (registered as lookahead like any other
				// boundary); the ingress itself asserts with zero local delay.
				pb := pl.Group.Connect(sb, sa, trunkCfg.Delay, func(a0, _ uint64, _ any) {
					aSw.PortPause(port, a0 != 0)
				})
				be := pl.Engines[sb]
				ig = bSw.NewIngress(names[a], 0, func(on bool) {
					v := uint64(0)
					if on {
						v = 1
					}
					pb.Send(be.Now()+trunkCfg.Delay, v, 0, nil)
				})
			}
		}
		f.Trunks = append(f.Trunks, ln)
		f.TrunkShards = append(f.TrunkShards, sa)
		f.TrunkPorts = append(f.TrunkPorts, TrunkPort{Sw: aSw, Port: port, From: a, To: b,
			Name: names[a] + "->" + names[b]})
	}
	switch topo.Kind {
	case TopoLeafSpine:
		for l := 0; l < racks; l++ {
			for s := racks; s < len(f.Switches); s++ {
				trunk(l, s)
				trunk(s, l)
			}
		}
	case TopoDumbbell:
		trunk(0, 1)
		trunk(1, 0)
	}

	// Routes: every spine reaches each leaf over its own down trunk; any
	// other switch reaches a host in another rack through the first hop
	// of TrunkRoute (hosts in its own rack sit on attached ports).
	for _, h := range hosts {
		if topo.Kind == TopoLeafSpine {
			for s := 0; s < topo.spines(); s++ {
				_, down := topo.TrunkPair(h.Rack, s)
				tp := f.TrunkPorts[down]
				tp.Sw.SetRoute(h.ID, tp.Port)
			}
		}
		for r := 0; r < racks; r++ {
			if r != h.Rack {
				hops, _ := topo.TrunkRoute(r, h.Rack, int(h.ID))
				tp := f.TrunkPorts[hops[0]]
				tp.Sw.SetRoute(h.ID, tp.Port)
			}
		}
	}
	return f, nil
}
