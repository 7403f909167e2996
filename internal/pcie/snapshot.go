package pcie

import "repro/internal/snapshot"

// Snapshot encodes the link's credit and serializer state. The waiter list
// holds closures; only its length is encoded (it is part of the observable
// state a digest must cover).
func (l *Link) Snapshot(e *snapshot.Encoder) {
	e.Int(l.credits)
	e.I64(int64(l.busyUntil))
	e.Int(len(l.waiters))
	e.Bool(l.stalled)
	e.Int(l.stalledCredits)
	l.Stalls.Snapshot(e)
	l.Sent.Snapshot(e)
	l.Releases.Snapshot(e)
}
