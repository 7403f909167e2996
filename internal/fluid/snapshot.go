package fluid

import "repro/internal/snapshot"

// fluidSnapVersion versions the fluid tier's encoding; bump on layout
// changes so images of different layouts never digest alike.
const fluidSnapVersion = 1

// Snapshot encodes the network's replayable state: tick and transition
// counters, the integrated goodput, per-resource queue/fault state and
// per-flow rate machinery. Demand/served/mark scratch recomputed every
// tick is not state and is skipped. Shapes (resource parameters, flow
// paths) come from construction and are encoded only as counts.
func (n *Network) Snapshot(enc *snapshot.Encoder) {
	enc.U32(fluidSnapVersion)
	enc.U64(n.ticks)
	enc.U64(n.promotions)
	enc.U64(n.demotions)
	enc.F64(n.delivered)
	enc.Int(len(n.res))
	for i := range n.res {
		r := &n.res[i]
		enc.F64(r.q)
		enc.Bool(r.faulted)
	}
	enc.Int(len(n.flows))
	for i := range n.flows {
		f := &n.flows[i]
		enc.U32(uint32(f.state))
		enc.U32(uint32(f.winLeft))
		enc.U32(uint32(f.markedTicks))
		enc.U32(uint32(f.lossTicks))
		enc.U32(uint32(f.congTicks))
		enc.U32(uint32(f.calmTicks))
		enc.F64(f.rate)
		enc.F64(f.alpha)
	}
}
