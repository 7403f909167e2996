package sim

import "repro/internal/snapshot"

// Snapshot encodes the engine's replayable state: clock, sequence counter,
// processed-event count, pending-event count, stop flag, and the RNG replay
// cursor (seed + number of draws). The queued events are not encoded
// beyond their count: they carry handler IDs, which mean nothing outside
// this engine, and resumption is replay-based (see package snapshot).
func (e *Engine) Snapshot(enc *snapshot.Encoder) {
	enc.I64(int64(e.now))
	enc.U64(e.seq)
	enc.U64(e.Processed)
	enc.Int(e.q.n)
	enc.Bool(e.stopped)
	enc.I64(e.seed)
	enc.U64(e.src.draws)
}

// SnapshotState encodes the timer's armed flag, deadline and generation,
// so an armed timer, a disarmed one and a moved deadline all digest
// differently. The pending engine event backing an armed timer is not
// encoded; a replay re-creates it.
func (t *Timer) SnapshotState(enc *snapshot.Encoder) {
	enc.Bool(t.set)
	enc.I64(int64(t.at))
	enc.U64(t.gen)
}
