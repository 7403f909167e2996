package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// HandlerID names a pre-registered event handler (see Engine.Handler).
// The zero value is reserved as "no handler", so a zero Callback is inert.
type HandlerID uint32

// Callback pairs a handler with its scalar arguments. Components whose
// completion paths are allocation-sensitive (the memory controller, the
// IIO) accept a Callback instead of a closure: scheduling one costs no
// allocation, while a closure costs one per event.
type Callback struct {
	ID         HandlerID
	Arg0, Arg1 uint64
}

// Set reports whether the callback names a handler.
func (cb Callback) Set() bool { return cb.ID != 0 }

// event is one scheduled occurrence. It is all scalars — no closure, no
// interface — so the queue's buckets are flat []event slices that the GC
// never scans and push/pop never allocate. It carries no sequence number:
// the queue keeps same-instant events in push order by construction.
type event struct {
	at         Time
	id         HandlerID
	arg0, arg1 uint64
}

// eventQueue is a monotone radix heap (DESIGN.md "Event queue"). An
// event waits in bucket bits.Len64(at^last), where last is the time of
// the most recent pull; bucket 0 holds the events at exactly last and is
// read FIFO. When it runs dry, the lowest non-empty bucket is pulled:
// last moves to its earliest time and its events are redistributed, by
// stable appends, into lower buckets. Equal times always share a bucket
// and every move preserves relative order, so events at one instant
// leave in push order: the pop order is exactly the (at, seq) order of a
// comparison heap, without a stored seq or a single sift.
//
// Times are never negative (the clock starts at zero and Schedule
// rejects the past), so 64 buckets cover every index. Only a pop moves
// last: a peek that moved it would let a later Schedule in
// [now, peeked) land below last and break the bucket invariant.
type eventQueue struct {
	last Time
	head int    // read cursor into b[0]
	n    int    // queued events
	mask uint64 // bit i set: bucket i is non-empty (bit 0 is ignored)
	b    [64][]event
}

func (q *eventQueue) push(ev event) {
	i := bits.Len64(uint64(ev.at ^ q.last))
	q.b[i] = append(q.b[i], ev)
	q.mask |= 1 << i
	q.n++
}

// lowest returns the lowest non-empty bucket above 0 and its earliest
// time; i is 0 when every such bucket is empty.
func (q *eventQueue) lowest() (i int, at Time) {
	m := q.mask &^ 1
	if m == 0 {
		return 0, 0
	}
	i = bits.TrailingZeros64(m)
	b := q.b[i]
	at = b[0].at
	for _, ev := range b[1:] {
		at = min(at, ev.at)
	}
	return i, at
}

// popUntil removes and returns the earliest event if it is due at or
// before deadline. Otherwise it reports false and leaves the queue, last
// included, as it was.
func (q *eventQueue) popUntil(deadline Time) (event, bool) {
	if q.head == len(q.b[0]) {
		q.b[0], q.head = q.b[0][:0], 0
		i, at := q.lowest()
		if i == 0 || at > deadline {
			return event{}, false
		}
		q.last = at
		src := q.b[i]
		for _, ev := range src {
			j := bits.Len64(uint64(ev.at ^ at))
			q.b[j] = append(q.b[j], ev)
			q.mask |= 1 << j
		}
		q.b[i] = src[:0]
		q.mask &^= 1 << i
	} else if q.last > deadline {
		return event{}, false
	}
	ev := q.b[0][q.head]
	q.head++
	q.n--
	return ev, true
}

// Engine is a single-threaded discrete-event scheduler.
//
// All model callbacks run from (*Engine).Run variants on the calling
// goroutine; models therefore never need synchronization. The engine owns a
// seeded RNG so that runs are deterministic and reproducible.
//
// The hot-path API is handler-based: register a handler once with Handler,
// then Schedule/ScheduleAfter events carrying two scalar arguments — zero
// allocations per event in steady state. The closure API (At/After) remains
// as a compatibility shim for low-rate callers; each closure event parks
// its func in a recycled slot table and costs only the closure allocation
// the caller already made.
type Engine struct {
	now     Time
	seq     uint64
	q       eventQueue
	seed    int64
	src     *countingSource
	rng     *rand.Rand
	stopped bool

	handlers []func(arg0, arg1 uint64)

	// Closure-shim slot table: At/After park their func here and schedule
	// the trampoline handler with the slot index as arg0. Slots recycle
	// through a free list, so sustained closure traffic does not grow it.
	closureH    HandlerID
	closures    []func()
	closureFree []uint32

	// Processed counts events executed so far; useful for perf accounting.
	Processed uint64

	// maxPending is the high-water mark of the event queue — diagnostic
	// only (memory audits), deliberately excluded from Snapshot.
	maxPending int
}

// countingSource wraps the standard seeded source and counts draws, making
// RNG state snapshotable: the sequence is unchanged (every call delegates),
// and a snapshot records only (seed, draws). Int63 and Uint64 both advance
// the underlying generator by exactly one step, so the draw count names
// the generator state whatever mix of calls consumed it.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.draws = 0
}

// NewEngine returns an engine at time zero with a deterministic RNG.
func NewEngine(seed int64) *Engine {
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	e := &Engine{seed: seed, src: src, rng: rand.New(src)}
	e.closureH = e.Handler(e.runClosure)
	return e
}

// Handler registers fn and returns its ID for use with Schedule. Handlers
// are registered once per component at construction time; registration
// order must be deterministic (it is, under the single-threaded engine),
// but IDs carry no meaning across engines and are never serialized.
func (e *Engine) Handler(fn func(arg0, arg1 uint64)) HandlerID {
	if fn == nil {
		panic("sim: Handler with nil func")
	}
	e.handlers = append(e.handlers, fn)
	return HandlerID(len(e.handlers)) // IDs start at 1; 0 means "unset"
}

// Seed returns the seed the engine was created with.
func (e *Engine) Seed() int64 { return e.seed }

// RNGDraws returns how many values have been drawn from the engine RNG's
// source (the replay cursor of the RNG state).
func (e *Engine) RNGDraws() uint64 { return e.src.draws }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule arranges for handler id to run at absolute time t with the
// given arguments. This is the allocation-free hot path. Scheduling in the
// past is a programming error and panics: silently reordering time would
// corrupt every queueing model built on the engine.
func (e *Engine) Schedule(t Time, id HandlerID, arg0, arg1 uint64) {
	if id == 0 || int(id) > len(e.handlers) {
		panic(fmt.Sprintf("sim: Schedule with unregistered handler %d", id))
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	e.seq++
	e.q.push(event{at: t, id: id, arg0: arg0, arg1: arg1})
	if n := e.q.n; n > e.maxPending {
		e.maxPending = n
	}
}

// ScheduleAfter schedules handler id to run d nanoseconds from now.
// Negative delays clamp to zero.
func (e *Engine) ScheduleAfter(d Time, id HandlerID, arg0, arg1 uint64) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now+d, id, arg0, arg1)
}

// Invoke schedules a Callback at absolute time t (no-op when unset).
func (e *Engine) Invoke(t Time, cb Callback) {
	e.Schedule(t, cb.ID, cb.Arg0, cb.Arg1)
}

// Dispatch invokes a handler synchronously, without scheduling an event.
// Components use it to run a caller-supplied Callback from inside their
// own event (e.g. a completion notification) exactly as they would have
// called a closure.
func (e *Engine) Dispatch(id HandlerID, arg0, arg1 uint64) {
	if id == 0 || int(id) > len(e.handlers) {
		panic(fmt.Sprintf("sim: Dispatch with unregistered handler %d", id))
	}
	e.handlers[id-1](arg0, arg1)
}

// At schedules fn to run at absolute time t (closure compatibility shim;
// prefer Handler/Schedule on high-rate paths).
func (e *Engine) At(t Time, fn func()) {
	if fn == nil {
		panic("sim: At with nil callback")
	}
	var slot uint32
	if n := len(e.closureFree); n > 0 {
		slot = e.closureFree[n-1]
		e.closureFree = e.closureFree[:n-1]
		e.closures[slot] = fn
	} else {
		slot = uint32(len(e.closures))
		e.closures = append(e.closures, fn)
	}
	e.Schedule(t, e.closureH, uint64(slot), 0)
}

// runClosure is the trampoline handler behind the At/After shim.
func (e *Engine) runClosure(slot, _ uint64) {
	fn := e.closures[slot]
	e.closures[slot] = nil // release the closure; the slot recycles
	e.closureFree = append(e.closureFree, uint32(slot))
	fn()
}

// After schedules fn to run d nanoseconds from now. Negative delays clamp
// to zero (run "immediately after" the current event).
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return e.q.n }

// NextEventAt peeks the timestamp of the earliest queued event. The
// second return is false when the queue is empty. ShardGroup uses this
// at barriers to bound the next conservative window. It scans the lowest
// bucket instead of pulling it, so the queue is left untouched.
func (e *Engine) NextEventAt() (Time, bool) {
	if e.q.head < len(e.q.b[0]) {
		return e.q.last, true
	}
	i, at := e.q.lowest()
	return at, i != 0
}

// MaxPending reports the high-water mark of the event queue over the
// engine's lifetime (memory audits).
func (e *Engine) MaxPending() int { return e.maxPending }

// HeapCap reports the event queue's backing capacity, summed over its
// buckets. Against MaxPending it bounds the memory the queue keeps.
func (e *Engine) HeapCap() int {
	c := 0
	for _, b := range e.q.b {
		c += cap(b)
	}
	return c
}

// Stop makes the current Run call return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	ev, ok := e.q.popUntil(math.MaxInt64)
	if ok {
		e.dispatch(ev)
	}
	return ok
}

// dispatch advances the clock to ev and runs its handler.
func (e *Engine) dispatch(ev event) {
	if ev.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.at
	e.Processed++
	e.handlers[ev.id-1](ev.arg0, ev.arg1)
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to the deadline (even if the queue still holds later events).
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		ev, ok := e.q.popUntil(deadline)
		if !ok {
			break
		}
		e.dispatch(ev)
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
