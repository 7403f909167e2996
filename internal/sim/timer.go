package sim

// Timer is a cancellable, resettable one-shot timer, analogous to
// time.Timer but driven by simulated time. It is the building block for
// transport retransmission timers (RTO, TLP) and periodic samplers.
//
// The zero value is not usable; create timers with NewTimer.
type Timer struct {
	e   *Engine
	fn  func()
	h   HandlerID
	gen uint64 // incremented on Stop/Reset to invalidate in-flight events
	at  Time
	set bool
}

// NewTimer returns an unarmed timer that will invoke fn when it fires.
// The timer registers one engine handler at construction, so Reset/Stop
// cycles are allocation-free no matter how often the timer re-arms.
func NewTimer(e *Engine, fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil callback")
	}
	t := &Timer{e: e, fn: fn}
	t.h = e.Handler(t.fire)
	return t
}

// fire is the timer's engine handler; arg0 carries the generation the
// firing was scheduled under, so stale events from before a Reset/Stop
// are recognized and dropped.
func (t *Timer) fire(gen, _ uint64) {
	if t.gen != gen || !t.set {
		return // superseded by Reset or Stop
	}
	t.set = false
	t.fn()
}

// Reset (re-)arms the timer to fire d from now, replacing any pending firing.
func (t *Timer) Reset(d Time) {
	t.gen++
	t.set = true
	t.at = t.e.Now() + max(d, 0)
	t.e.Schedule(t.at, t.h, t.gen, 0)
}

// ResetAt arms the timer to fire at absolute time at.
func (t *Timer) ResetAt(at Time) {
	t.Reset(at - t.e.Now())
}

// Stop disarms the timer. It reports whether a firing was pending.
func (t *Timer) Stop() bool {
	was := t.set
	t.set = false
	t.gen++
	return was
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.set }

// Ticker invokes fn every interval until stopped. It is used for the
// hostCC signal sampler and for time-series recorders.
type Ticker struct {
	t        *Timer
	interval Time
	fn       func()
}

// NewTicker starts a ticker whose first tick is one interval from now.
func NewTicker(e *Engine, interval Time, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: NewTicker with non-positive interval")
	}
	tk := &Ticker{interval: interval, fn: fn}
	tk.t = NewTimer(e, tk.tick)
	tk.t.Reset(interval)
	return tk
}

func (tk *Ticker) tick() {
	tk.fn()
	tk.t.Reset(tk.interval)
}

// Stop halts the ticker.
func (tk *Ticker) Stop() { tk.t.Stop() }
