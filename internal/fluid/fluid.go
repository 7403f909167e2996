// Package fluid is the coarse tier of the hybrid fluid/packet
// simulation: long-lived background flows advance as per-flow rate ODEs
// integrated on coarse ticks, while foreground flows stay packet-level.
// Each fluid resource is one serializing capacity (a host access link,
// a trunk port); each flow is a rate + a DCTCP α traversing a short
// path of resources. Per tick the network aggregates demand per
// resource, integrates the shared queue against the capacity left by
// the packet tier, marks above the ECN threshold, and advances every
// flow's rate by its congestion-control twin once per model RTT.
//
// Conservation at the seam runs through fabric.FluidTap (the Seam
// interface here): the integrator reads the packet bytes offered to a
// tapped serializer and folds them into demand, and writes back the
// fluid demand and queue share so packets are serialized at the
// residual capacity and ECN-marked on the combined depth.
//
// Everything is deterministic by construction: resources and flows
// advance in index order, all arithmetic is fixed-order float64, and
// promote/demote decisions fire from hysteresis counters compared in
// flow order — a run is reproducible tick for tick, which the snapshot
// digests verify.
package fluid

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/transport"
)

// Seam couples one fluid resource to a packet-tier serializer.
// *fabric.FluidTap implements it.
type Seam interface {
	// TakePacketBytes returns (and resets) the packet bytes offered to
	// the serializer since the previous tick.
	TakePacketBytes() int64
	// PacketQueueBytes is the serializer's instantaneous packet queue.
	PacketQueueBytes() int
	// SetBackground installs the fluid demand and queue share.
	SetBackground(rate sim.Rate, qBytes int)
}

// Config parameterizes the fluid network.
type Config struct {
	Tick sim.Time // integration step (default 20 µs)
	RTT  sim.Time // model RTT — the AIMD window clock (default 44 µs)
	MSS  int      // additive-increase unit (default 4096)
	// Scheme names the congestion-control twin: "dctcp" (default) or
	// "reno" (transport.FluidSchemeByName).
	Scheme string
	// InitRate seeds each flow's rate (default 100 Mbps).
	InitRate sim.Rate
	// MinRate floors every flow's rate (default 1 Mbps) so a flow can
	// always probe back up after a deep decrease.
	MinRate sim.Rate

	// Promote/demote hysteresis: a promotable flow promotes to packet
	// level after PromoteTicks consecutive ticks with a hot resource on
	// its path, and demotes after DemoteTicks consecutive calm ticks
	// (every path queue below DemoteFrac × the ECN threshold). A
	// resource is hot when it leaves the fluid model's valid regime —
	// combined queue above PromoteQueueFrac × the buffer, overflow
	// loss, or an injected fault — NOT at ordinary ECN marking, which
	// is DCTCP's steady operating point and would flap every flow.
	// Defaults 3 / 50 / 0.25 / 0.5.
	PromoteTicks     int
	DemoteTicks      int
	DemoteFrac       float64
	PromoteQueueFrac float64
}

func (c Config) withDefaults() Config {
	if c.Tick == 0 {
		c.Tick = 20 * sim.Microsecond
	}
	if c.RTT == 0 {
		c.RTT = 44 * sim.Microsecond
	}
	if c.MSS == 0 {
		c.MSS = 4096
	}
	if c.InitRate == 0 {
		c.InitRate = sim.Gbps(0.1)
	}
	if c.MinRate == 0 {
		c.MinRate = sim.Gbps(0.001)
	}
	if c.PromoteTicks == 0 {
		c.PromoteTicks = 3
	}
	if c.DemoteTicks == 0 {
		c.DemoteTicks = 50
	}
	if c.DemoteFrac == 0 {
		c.DemoteFrac = 0.25
	}
	if c.PromoteQueueFrac == 0 {
		c.PromoteQueueFrac = 0.5
	}
	return c
}

// windowTicks is the model RTT in whole ticks, rounded up. Call on a
// config with positive Tick and RTT.
func (c Config) windowTicks() sim.Time {
	return (c.RTT-1)/c.Tick + 1
}

// Validate reports the first invalid parameter.
func (c Config) Validate() error {
	c0 := c.withDefaults()
	if c0.Tick <= 0 || c0.RTT <= 0 {
		return fmt.Errorf("fluid: Tick %v and RTT %v must be positive", c0.Tick, c0.RTT)
	}
	if c0.MSS <= 0 {
		return fmt.Errorf("fluid: MSS %d must be positive", c0.MSS)
	}
	if c0.InitRate <= 0 || c0.MinRate <= 0 {
		return fmt.Errorf("fluid: InitRate %v and MinRate %v must be positive", c0.InitRate, c0.MinRate)
	}
	if c0.PromoteTicks < 0 || c0.DemoteTicks < 0 {
		return fmt.Errorf("fluid: negative hysteresis (%d promote / %d demote ticks)", c0.PromoteTicks, c0.DemoteTicks)
	}
	// The per-flow window and hysteresis counters are uint16: a window
	// past their range would wrap silently, and a threshold past it
	// could never be reached.
	if wt := c0.windowTicks(); wt > math.MaxUint16 {
		return fmt.Errorf("fluid: RTT %v spans %d ticks of %v (max %d)", c0.RTT, wt, c0.Tick, math.MaxUint16)
	}
	if c0.PromoteTicks > math.MaxUint16 || c0.DemoteTicks > math.MaxUint16 {
		return fmt.Errorf("fluid: hysteresis (%d promote / %d demote ticks) exceeds %d", c0.PromoteTicks, c0.DemoteTicks, math.MaxUint16)
	}
	if c0.DemoteFrac <= 0 || c0.DemoteFrac > 1 {
		return fmt.Errorf("fluid: DemoteFrac %v outside (0,1]", c0.DemoteFrac)
	}
	if c0.PromoteQueueFrac <= 0 || c0.PromoteQueueFrac > 1 {
		return fmt.Errorf("fluid: PromoteQueueFrac %v outside (0,1]", c0.PromoteQueueFrac)
	}
	if _, err := transport.FluidSchemeByName(c0.Scheme, c0.MSS, c0.RTT); err != nil {
		return err
	}
	return nil
}

// ResourceID indexes one resource of a Network, in AddResource order.
type ResourceID int32

// maxHops bounds a fluid flow's path: up-access, leaf trunk, spine
// trunk, down-access. Inline storage keeps a million-flow population at
// ~48 bytes per flow with no per-flow allocation.
const maxHops = 4

type resource struct {
	name    string
	cap     float64 // bytes/sec
	buf     float64 // buffer bytes (overflow above it is loss)
	ecn     float64 // mark threshold bytes
	seam    Seam    // nil for virtual-host resources
	faulted bool
	q       float64 // fluid queue depth, bytes
}

// Per-tick resource signal bits, one byte per resource in
// Network.signal. notCalm is stored inverted so a path's bits OR
// together: any set bit on any hop sets it for the whole path.
const (
	sigMarked  = 1 << iota // combined queue above the ECN threshold
	sigHot                 // out of the fluid regime: deep queue, loss, or fault
	sigLossy               // overflowed this tick
	sigNotCalm             // combined queue at or above DemoteFrac × threshold, or faulted
)

// Flow state bits.
const (
	stPromotable = 1 << iota // has a packet-level twin connection
	stPromoted               // currently running at packet level
)

type flow struct {
	path  [maxHops]ResourceID
	npath uint8
	state uint8

	winLeft     uint16 // ticks until the current RTT window ends
	markedTicks uint16
	lossTicks   uint16
	congTicks   uint16 // consecutive ticks with a hot path resource
	calmTicks   uint16 // consecutive ticks with an all-calm path

	rate  float64 // bytes/sec
	alpha float64 // DCTCP congestion estimate
}

// Network is one fluid-flow population over a set of resources.
type Network struct {
	cfg         Config
	cc          transport.FluidCC
	res         []resource
	flows       []flow
	windowTicks uint16

	// Per-tick scratch, dense and indexed by ResourceID so the flow
	// pass reads one float and one byte per hop: Σ flow rates
	// (bytes/sec), the fraction of that demand served, and the
	// sig* bits.
	demand []float64
	served []float64
	signal []uint8

	ticks      uint64
	promotions uint64
	demotions  uint64
	delivered  float64 // aggregate fluid goodput, bytes

	promote func(i int, rate sim.Rate)
	demote  func(i int) sim.Rate
}

// New creates an empty network. Panics on an invalid config (build-time
// misconfiguration, matching fabric's constructors).
func New(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	cc, _ := transport.FluidSchemeByName(cfg.Scheme, cfg.MSS, cfg.RTT)
	return &Network{cfg: cfg, cc: cc, windowTicks: uint16(cfg.windowTicks())}
}

// Config returns the resolved configuration.
func (n *Network) Config() Config { return n.cfg }

// AddResource adds one serializing capacity. bufBytes bounds the fluid
// queue (overflow is loss); ecnBytes is the mark threshold.
func (n *Network) AddResource(name string, capacity sim.Rate, bufBytes, ecnBytes int) ResourceID {
	if capacity <= 0 || bufBytes <= 0 || ecnBytes <= 0 || ecnBytes >= bufBytes {
		panic(fmt.Sprintf("fluid: resource %q needs positive capacity and 0 < ecn < buf (got %v, %d, %d)",
			name, capacity, bufBytes, ecnBytes))
	}
	n.res = append(n.res, resource{
		name: name,
		cap:  float64(capacity),
		buf:  float64(bufBytes),
		ecn:  float64(ecnBytes),
	})
	n.demand = append(n.demand, 0)
	n.served = append(n.served, 0)
	n.signal = append(n.signal, 0)
	return ResourceID(len(n.res) - 1)
}

// BindSeam couples resource r to a packet-tier serializer.
func (n *Network) BindSeam(r ResourceID, s Seam) {
	if s == nil {
		panic("fluid: nil seam")
	}
	n.res[r].seam = s
}

// SetFault marks resource r faulted: every flow crossing it sees a hot
// path (the promote trigger) for the duration. Fault windows are wired
// from the testbed's fault schedule, so entering one promotes the
// promotable flows crossing the faulted trunk.
func (n *Network) SetFault(r ResourceID, on bool) { n.res[r].faulted = on }

// AddFlow adds one background flow over the given resource path and
// returns its index. Flows start demoted at InitRate.
func (n *Network) AddFlow(path ...ResourceID) int {
	if len(path) == 0 || len(path) > maxHops {
		panic(fmt.Sprintf("fluid: flow path of %d hops (want 1..%d)", len(path), maxHops))
	}
	f := flow{npath: uint8(len(path)), winLeft: n.windowTicks, rate: float64(n.cfg.InitRate)}
	for i, r := range path {
		if int(r) < 0 || int(r) >= len(n.res) {
			panic(fmt.Sprintf("fluid: flow hop %d references unknown resource %d", i, r))
		}
		f.path[i] = r
	}
	n.flows = append(n.flows, f)
	return len(n.flows) - 1
}

// SetPromotable marks flow i as having a packet-level twin connection;
// only promotable flows ever promote.
func (n *Network) SetPromotable(i int, on bool) {
	if on {
		n.flows[i].state |= stPromotable
	} else {
		n.flows[i].state &^= stPromotable
	}
}

// SetPromoteHooks installs the promote/demote callbacks: promote hands
// flow i to the packet tier seeded with its fluid rate; demote takes it
// back and returns the rate the packet tier measured.
func (n *Network) SetPromoteHooks(promote func(i int, rate sim.Rate), demote func(i int) sim.Rate) {
	n.promote = promote
	n.demote = demote
}

// Register adds the network's tick to a coarse clock. The clock's
// period must match cfg.Tick — the integration step is part of the
// model, not a sampling choice.
func (n *Network) Register(c *sim.CoarseClock) {
	if c.Period() != n.cfg.Tick {
		panic(fmt.Sprintf("fluid: coarse clock period %v != configured tick %v", c.Period(), n.cfg.Tick))
	}
	c.Register("fluid", n.Tick)
}

// Tick advances the network by one integration step. Exported for
// direct-drive tests; in a testbed the coarse clock calls it.
func (n *Network) Tick(_ sim.Time) {
	n.ticks++
	dt := n.cfg.Tick.Seconds()

	// Equal lengths let the compiler drop the served/demand bounds
	// checks once signal's has passed.
	signal := n.signal
	demand, served := n.demand[:len(signal)], n.served[:len(signal)]

	// Demand aggregation: promoted flows send real packets, which the
	// seam's packet-byte counters already account for.
	clear(demand)
	for i := range n.flows {
		f := &n.flows[i]
		if f.state&stPromoted != 0 {
			continue
		}
		// A local copy: read through f, the rate would be reloaded
		// behind every demand store.
		rate := f.rate
		for _, r := range f.path[:f.npath] {
			demand[r] += rate
		}
	}

	// Queue integration per resource: the packet tier's offered load
	// takes capacity first (its bytes are already on the wire); the
	// fluid queue absorbs the excess demand and drains the slack.
	for i := range n.res {
		r := &n.res[i]
		d := demand[i]
		capLeft := r.cap
		if r.seam != nil {
			capLeft -= float64(r.seam.TakePacketBytes()) / dt
			if capLeft < 0 {
				capLeft = 0
			}
		}
		srv := 1.0
		lossy := false
		if d > capLeft {
			r.q += (d - capLeft) * dt
			if r.q > r.buf {
				r.q = r.buf // the overflow is lost
				lossy = true
			}
			if d > 0 {
				srv = capLeft / d
			}
		} else {
			r.q -= (capLeft - d) * dt
			if r.q < 0 {
				r.q = 0
			}
		}
		served[i] = srv
		combined := r.q
		if r.seam != nil {
			combined += float64(r.seam.PacketQueueBytes())
		}
		var sig uint8
		if combined > r.ecn {
			sig |= sigMarked
		}
		if combined > n.cfg.PromoteQueueFrac*r.buf || lossy || r.faulted {
			sig |= sigHot
		}
		if lossy {
			sig |= sigLossy
		}
		if !(combined < n.cfg.DemoteFrac*r.ecn) || r.faulted {
			sig |= sigNotCalm
		}
		signal[i] = sig
		if r.seam != nil {
			r.seam.SetBackground(sim.Rate(d), int(r.q))
		}
	}

	// Flow response, in flow-index order (the determinism contract for
	// promote/demote: hysteresis counters tick and fire in this order).
	// Goodput accumulates in a local for the same reason as the rate
	// above, in the same order, and is stored back before every hook
	// call and at the end.
	delivered := n.delivered
	for i := range n.flows {
		f := &n.flows[i]
		if f.state&stPromoted != 0 {
			var sig uint8
			for _, r := range f.path[:f.npath] {
				sig |= signal[r]
			}
			if sig&sigNotCalm == 0 {
				f.calmTicks++
			} else {
				f.calmTicks = 0
			}
			if int(f.calmTicks) >= n.cfg.DemoteTicks && n.demote != nil {
				n.delivered = delivered
				got := float64(n.demote(i))
				if got < float64(n.cfg.MinRate) {
					got = float64(n.cfg.MinRate)
				}
				f.rate = got
				f.alpha = 0
				f.state &^= stPromoted
				f.calmTicks, f.congTicks = 0, 0
				f.winLeft, f.markedTicks, f.lossTicks = n.windowTicks, 0, 0
				n.demotions++
			}
			continue
		}

		var sig uint8
		frac := 1.0
		for _, r := range f.path[:f.npath] {
			sig |= signal[r]
			if served[r] < frac {
				frac = served[r]
			}
		}
		delivered += f.rate * frac * dt

		if sig&sigMarked != 0 {
			f.markedTicks++
		}
		if sig&sigLossy != 0 {
			f.lossTicks++
		}
		f.winLeft--
		if f.winLeft == 0 {
			mf := float64(f.markedTicks) / float64(n.windowTicks)
			lf := float64(f.lossTicks) / float64(n.windowTicks)
			f.rate, f.alpha = n.cc.Advance(f.rate, f.alpha, mf, lf)
			if f.rate < float64(n.cfg.MinRate) {
				f.rate = float64(n.cfg.MinRate)
			}
			f.winLeft, f.markedTicks, f.lossTicks = n.windowTicks, 0, 0
		}

		if f.state&stPromotable != 0 {
			if sig&sigHot != 0 {
				f.congTicks++
				f.calmTicks = 0
			} else {
				f.congTicks = 0
				if sig&sigNotCalm == 0 {
					f.calmTicks++
				} else {
					f.calmTicks = 0
				}
			}
			if int(f.congTicks) >= n.cfg.PromoteTicks && n.promote != nil {
				f.state |= stPromoted
				f.congTicks, f.calmTicks = 0, 0
				n.promotions++
				n.delivered = delivered
				n.promote(i, sim.Rate(f.rate))
			}
		}
	}
	n.delivered = delivered
}

// Flows returns the flow count.
func (n *Network) Flows() int { return len(n.flows) }

// Ticks returns how many integration steps have run.
func (n *Network) Ticks() uint64 { return n.ticks }

// Promotions and Demotions count tier transitions so far.
func (n *Network) Promotions() uint64 { return n.promotions }

// Demotions counts packet→fluid transitions so far.
func (n *Network) Demotions() uint64 { return n.demotions }

// Promoted reports whether flow i currently runs at packet level.
func (n *Network) Promoted(i int) bool { return n.flows[i].state&stPromoted != 0 }

// FlowRate returns flow i's current fluid rate (its last fluid rate
// while promoted).
func (n *Network) FlowRate(i int) sim.Rate { return sim.Rate(n.flows[i].rate) }

// TotalRate sums the demoted flows' current rates.
func (n *Network) TotalRate() sim.Rate {
	var sum float64
	for i := range n.flows {
		if n.flows[i].state&stPromoted == 0 {
			sum += n.flows[i].rate
		}
	}
	return sim.Rate(sum)
}

// DeliveredBytes returns the aggregate fluid goodput integrated so far
// (bytes actually served, after bottleneck scaling).
func (n *Network) DeliveredBytes() float64 { return n.delivered }

// QueueBytes returns resource r's current fluid queue depth.
func (n *Network) QueueBytes(r ResourceID) float64 { return n.res[r].q }
