package msr

import "repro/internal/snapshot"

// Snapshot encodes the register file's read-side state: the last value
// of every register read so far, in ascending address order for
// determinism. Only registered readers can have been read, so walking the
// sorted reader addresses visits lastRead without allocating.
func (f *File) Snapshot(e *snapshot.Encoder) {
	e.U32(uint32(len(f.lastRead)))
	for _, a := range f.addrs {
		if v, ok := f.lastRead[a]; ok {
			e.U32(uint32(a))
			e.U64(v)
		}
	}
	e.I64(f.FailedReads)
	e.I64(f.StaleReads)
}
