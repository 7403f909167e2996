package transport

import (
	"sort"

	"repro/internal/packet"
	"repro/internal/snapshot"
)

// Snapshot encodes the endpoint and every connection, walking the
// connection map in sorted flow order for determinism. The flow list is
// part of the image, so two endpoints with different connection sets never
// encode alike.
func (ep *Endpoint) Snapshot(e *snapshot.Encoder) {
	e.U32(uint32(ep.nextPort))
	e.I64(ep.StrayPackets)
	flows := ep.sortedFlows()
	e.U32(uint32(len(flows)))
	for _, f := range flows {
		e.U64(uint64(f.Src))
		e.U64(uint64(f.Dst))
		e.U32(uint32(f.SrcPort))
		e.U32(uint32(f.DstPort))
		ep.cons[f].snapshot(e)
	}
}

func (ep *Endpoint) sortedFlows() []packet.FlowID {
	flows := make([]packet.FlowID, 0, len(ep.cons))
	for f := range ep.cons {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool {
		a, b := flows[i], flows[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.SrcPort != b.SrcPort {
			return a.SrcPort < b.SrcPort
		}
		return a.DstPort < b.DstPort
	})
	return flows
}

// snapshot encodes one connection's sender, receiver and timer state.
func (c *Conn) snapshot(e *snapshot.Encoder) {
	e.U64(c.sndUna)
	e.U64(c.sndNxt)
	e.I64(c.appQueue)
	e.Bool(c.infinite)
	e.U32(uint32(c.segs.Len()))
	for i := 0; i < c.segs.Len(); i++ {
		s := c.segs.At(i)
		e.U64(s.seq)
		e.Int(s.len)
		e.I64(int64(s.sentAt))
		e.Int(s.retx)
		e.Bool(s.sacked)
		e.Int(s.epoch)
	}
	e.Int(c.dupAcks)
	e.Bool(c.inRecovery)
	e.U64(c.recoverSeq)
	e.Int(c.recoveryEpoch)
	e.U64(c.highSacked)
	e.U64(c.lostBelow)
	e.I64(int64(c.srtt))
	e.I64(int64(c.rttvar))
	e.Int(c.rtoBackoff)
	e.Bool(c.tlpArmed)
	e.I64(int64(c.pacedUntil))
	c.rtoTimer.SnapshotState(e)
	c.tlpTimer.SnapshotState(e)
	c.ackTimer.SnapshotState(e)
	c.paceTimer.SnapshotState(e)
	e.U64(c.rcvNxt)
	e.U32(uint32(len(c.ooo)))
	for _, iv := range c.ooo {
		e.U64(iv.lo)
		e.U64(iv.hi)
	}
	e.U64(c.lastOOO.lo)
	e.U64(c.lastOOO.hi)
	e.I64(int64(c.lastEpochBump))
	e.Int(c.pendingAcks)
	e.Bool(c.ceSinceLastAck)
	e.Bool(c.lastCE)
	e.I64(int64(c.lastDataSentAt))
	e.Int(c.cc.Cwnd())
	c.Retransmits.Snapshot(e)
	c.Timeouts.Snapshot(e)
	c.TLPProbes.Snapshot(e)
	c.MarkedAcks.Snapshot(e)
	c.AckedBytes.Snapshot(e)
	c.DeliveredData.Snapshot(e)
}
