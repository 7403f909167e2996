package iio

import "repro/internal/snapshot"

// Snapshot encodes the IIO's buffer and per-packet DMA state. The pending
// TLP queue (IOMMU gate) is encoded by length and line counts — digest
// coverage — and replay-reconstructed on resume.
func (io *IIO) Snapshot(e *snapshot.Encoder) {
	e.Int(io.occLines)
	io.occ.Snapshot(e)
	e.U64(io.rins)
	e.Bool(io.gateBusy)
	e.U32(uint32(io.pending.Len()))
	for i := 0; i < io.pending.Len(); i++ {
		t := io.pending.At(i)
		e.Int(t.Lines)
	}
	e.Bool(io.curPkt != nil)
	e.U64(uint64(io.curEntry))
	e.Bool(io.curHasEntry)
	e.Bool(io.evictGate)
	e.Int(io.evictBytes)
}
