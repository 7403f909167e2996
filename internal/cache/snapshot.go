package cache

import "repro/internal/snapshot"

// Snapshot encodes the pool contents. Entries are walked via the FIFO
// order slice, which lists every live entry exactly once, so the encoding
// is deterministic without sorting the map.
func (d *DDIO) Snapshot(e *snapshot.Encoder) {
	e.Int(d.used)
	e.U64(uint64(d.nextID))
	e.U32(uint32(len(d.order) - d.ordHead))
	for _, id := range d.order[d.ordHead:] {
		e.U64(uint64(id))
		e.Int(d.entries[id])
	}
	d.inserted.Snapshot(e)
	d.evicted.Snapshot(e)
	d.hitBytes.Snapshot(e)
	d.missBytes.Snapshot(e)
}
