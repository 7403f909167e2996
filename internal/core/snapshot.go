package core

import "repro/internal/snapshot"

// Snapshot encodes the hostCC signal filters, sampler cursors, counters and
// (when armed) the watchdog state machine.
func (h *HostCC) Snapshot(e *snapshot.Encoder) {
	h.isEWMA.Snapshot(e)
	h.bsEWMA.Snapshot(e)
	e.U64(h.lastROCC)
	e.I64(int64(h.lastROCCAt))
	e.U64(h.lastRINS)
	e.I64(int64(h.lastRINSAt))
	e.Bool(h.seeded)
	e.Bool(h.running)
	h.ReadLatency.Snapshot(e)
	h.MarkedPackets.Snapshot(e)
	h.Samples.Snapshot(e)
	h.FailedSamples.Snapshot(e)
	h.LevelRaises.Snapshot(e)
	h.LevelDrops.Snapshot(e)
	e.Bool(h.wd != nil)
	if h.wd != nil {
		h.wd.snapshot(e)
	}
}

func (w *Watchdog) snapshot(e *snapshot.Encoder) {
	e.Int(int(w.state))
	e.Str(w.reason)
	e.I64(int64(w.lastGoodAt))
	e.Int(w.consecFails)
	e.Int(w.consecFrozen)
	e.Int(w.consecGood)
	e.Int(w.desired)
	e.Bool(w.haveDesired)
	e.I64(int64(w.backoff))
	e.I64(int64(w.lastRetryAt))
	w.Trips.Snapshot(e)
	w.Rearms.Snapshot(e)
	w.Retries.Snapshot(e)
}
