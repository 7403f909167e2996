package nic

import "repro/internal/snapshot"

// Snapshot encodes the NIC's queue and DMA-engine state. Queued packets are
// encoded as (wire length, arrival time) pairs: enough for digests to
// distinguish queue composition; the packet objects themselves are
// replay-reconstructed.
func (n *NIC) Snapshot(e *snapshot.Encoder) {
	e.U32(uint32(n.rxQ.Len()))
	for i := 0; i < n.rxQ.Len(); i++ {
		ent := n.rxQ.At(i)
		e.Int(ent.p.WireLen())
		e.I64(int64(ent.at))
	}
	e.Int(n.rxBytes)
	e.Int(n.descFree)
	e.U32(uint32(len(n.cur) - n.curIdx))
	for _, t := range n.cur[n.curIdx:] {
		e.Int(t.Lines)
	}
	e.Bool(n.waiting)
	e.U32(uint32(n.txQ.Len()))
	e.Bool(n.txBusy)
	e.Int(n.txBytes)
	n.Arrivals.Snapshot(e)
	n.Drops.Snapshot(e)
	n.FaultDrops.Snapshot(e)
	n.DMAStarted.Snapshot(e)
	n.TxSent.Snapshot(e)
	n.rxOcc.Snapshot(e)
	n.QueueDelay.Snapshot(e)
	// PFC state is appended only in lossless mode so non-lossless images
	// stay byte-identical to the pre-PFC encoding.
	if n.cfg.PFC.Enabled {
		e.Bool(n.rxXoff)
		e.Bool(n.txPaused)
		e.I64(int64(n.txPausedAt))
		e.I64(int64(n.txPausedTotal))
		e.U32(uint32(len(n.cnpLast)))
		n.PauseAsserts.Snapshot(e)
		n.WatchdogReleases.Snapshot(e)
		n.CNPsSent.Snapshot(e)
		n.HeadroomDrops.Snapshot(e)
	}
}
