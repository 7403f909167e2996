package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// popRec is one fired event: its time and its push index, the order key
// the queue must reproduce.
type popRec struct {
	at  Time
	seq uint64
}

// orderLog schedules numbered events on one engine and records the order
// they fire in. The pop order is correct exactly when every pushed event
// fired once and the log is already sorted by (at, seq): each pop is then
// the minimum of what was pending, because anything pending then fires
// later, and anything pushed later is at or after the clock with a
// larger seq. verify checks that against a sort of the log.
type orderLog struct {
	e      *Engine
	h      HandlerID
	pushed uint64
	pops   []popRec
	onFire func(now Time)
}

func newOrderLog(e *Engine) *orderLog {
	c := &orderLog{e: e}
	c.h = e.Handler(func(seq, _ uint64) {
		c.pops = append(c.pops, popRec{e.Now(), seq})
		if c.onFire != nil {
			c.onFire(e.Now())
		}
	})
	return c
}

func (c *orderLog) schedule(at Time) {
	c.pushed++
	c.e.Schedule(at, c.h, c.pushed, 0)
}

// verify checks the log against a reference sort by (at, seq) and that
// every pushed event fired exactly once.
func (c *orderLog) verify(t testing.TB) {
	t.Helper()
	if uint64(len(c.pops)) != c.pushed {
		t.Fatalf("%d events fired, %d pushed", len(c.pops), c.pushed)
	}
	want := slices.Clone(c.pops)
	slices.SortFunc(want, func(a, b popRec) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	for i := range want {
		if c.pops[i] != want[i] {
			t.Fatalf("pop %d = (at %v, seq %d), want (at %v, seq %d)",
				i, c.pops[i].at, c.pops[i].seq, want[i].at, want[i].seq)
		}
		if i > 0 && want[i] == want[i-1] {
			t.Fatalf("event seq %d fired twice", want[i].seq)
		}
	}
}

// staleRTO is the far-future distance of a retransmission timer re-armed
// under the Linux 200 ms minimum RTO.
const staleRTO = 200 * Millisecond

// runQueueOps interprets ops as a program against c's engine, then drains
// it. Each byte picks an operation from its low three bits and a distance
// from the rest, covering same-instant pushes, near and far pushes, the
// stale-RTO shape, single steps, RunUntil followed by a Schedule in
// [deadline, next pending), and a NextEventAt peek followed by a Schedule
// in [now, peeked).
func runQueueOps(t testing.TB, c *orderLog, ops []byte) {
	t.Helper()
	e := c.e
	for _, op := range ops {
		now, d := e.Now(), Time(op>>3)
		switch op & 7 {
		case 0, 1:
			c.schedule(now)
		case 2:
			c.schedule(now + d)
		case 3:
			c.schedule(now + d<<10)
		case 4:
			c.schedule(now + staleRTO + d)
		case 5:
			next, ok := e.NextEventAt()
			if e.Step() && c.pops[len(c.pops)-1].at != next {
				t.Fatalf("NextEventAt peeked %v, Step ran an event at %v (ok=%v)", next, c.pops[len(c.pops)-1].at, ok)
			}
		case 6:
			deadline := now + d<<4
			e.RunUntil(deadline)
			if next, ok := e.NextEventAt(); ok && next > deadline {
				c.schedule(deadline + Time(op)%(next-deadline))
			}
		case 7:
			if next, ok := e.NextEventAt(); ok && next > now {
				c.schedule(now + Time(op)%(next-now))
			}
		}
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending after Run", e.Pending())
	}
	c.verify(t)
}

// TestEventQueueOrder checks the radix queue's pop order against a
// reference sort by (at, seq) across the shapes that matter to it.
func TestEventQueueOrder(t *testing.T) {
	t.Run("equal-times", func(t *testing.T) {
		e := NewEngine(1)
		c := newOrderLog(e)
		r := rand.New(rand.NewSource(1))
		for round := 0; round < 200; round++ {
			for i := r.Intn(50); i >= 0; i-- {
				c.schedule(e.Now() + Time(r.Intn(4))*Time(r.Intn(3)))
			}
			for i := r.Intn(40); i >= 0; i-- {
				e.Step()
			}
		}
		e.Run()
		c.verify(t)
	})

	// Tens of thousands of timers ~200 ms out (many at one instant) beside
	// a dense near-term chain that re-arms another stale timer as it goes:
	// the population a lazily-cancelled retransmission timer leaves behind.
	t.Run("stale-rto", func(t *testing.T) {
		e := NewEngine(2)
		c := newOrderLog(e)
		r := rand.New(rand.NewSource(2))
		for i := 0; i < 40_000; i++ {
			c.schedule(staleRTO + Time(r.Intn(2000))*Time(r.Intn(2)))
		}
		c.onFire = func(now Time) {
			if c.pushed >= 200_000 {
				return
			}
			if r.Intn(8) == 0 {
				c.schedule(now + staleRTO + Time(r.Intn(1000)))
			}
			if now < 5*Millisecond {
				c.schedule(now + Time(r.Intn(700)))
			}
		}
		c.schedule(0)
		for e.Now() < 10*Millisecond {
			e.RunUntil(e.Now() + Time(r.Intn(int(Millisecond))))
			if next, ok := e.NextEventAt(); ok && next > e.Now() {
				c.schedule(e.Now() + Time(r.Int63n(int64(next-e.Now()))))
			}
		}
		e.Run()
		c.verify(t)
	})

	t.Run("random-ops", func(t *testing.T) {
		r := rand.New(rand.NewSource(3))
		for trial := 0; trial < 50; trial++ {
			ops := make([]byte, 2000)
			r.Read(ops)
			runQueueOps(t, newOrderLog(NewEngine(int64(trial))), ops)
		}
	})

	// A sharded run peeks every shard's queue at each barrier
	// (NextEventAt) and bounds each window with RunUntil, then schedules
	// cross-shard arrivals below what it peeked. Neither peek may move
	// the queue's base time. The chains are sparse next to the boundary
	// delay, so most arrivals land before the destination's next event.
	t.Run("shard-barrier-peek", func(t *testing.T) {
		const delay = 3 * Microsecond
		g := NewShardGroup(4, 2)
		defer g.Close()
		logs := []*orderLog{newOrderLog(g.Shard(0)), newOrderLog(g.Shard(1))}
		var bnd [2]*Boundary
		for i := range bnd {
			dst := logs[1-i]
			bnd[i] = g.Connect(i, 1-i, delay, func(a0, _ uint64, _ any) {
				now := dst.e.Now()
				dst.schedule(now)
				dst.schedule(now + Time(a0%512))
			})
		}
		for i, c := range logs {
			i, c := i, c
			r := rand.New(rand.NewSource(int64(10 + i)))
			for k := 0; k < 10_000; k++ {
				c.schedule(staleRTO + Time(r.Intn(5000)))
			}
			c.onFire = func(now Time) {
				if now >= 2*Millisecond || c.pushed >= 100_000 {
					return
				}
				if r.Intn(16) == 0 {
					c.schedule(now + staleRTO)
				}
				c.schedule(now + Time(r.Intn(20_000)))
				if r.Intn(2) == 0 {
					bnd[i].Send(now+delay+Time(r.Intn(100)), r.Uint64(), 0, nil)
				}
			}
			for k := 0; k < 2; k++ {
				c.schedule(Time(r.Intn(1000)))
			}
		}
		g.RunUntil(Second)
		for _, c := range logs {
			if c.e.Pending() != 0 {
				t.Fatalf("%d events still pending", c.e.Pending())
			}
			c.verify(t)
		}
	})
}

// FuzzEventQueueOrder runs the operation programs of runQueueOps beside
// a standing population of far-future timers; the seed corpus lives in
// testdata/fuzz/FuzzEventQueueOrder.
func FuzzEventQueueOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, standing uint16, ops []byte) {
		e := NewEngine(1)
		c := newOrderLog(e)
		for i := 0; i < int(standing%4096); i++ {
			c.schedule(staleRTO + Time(i%7))
		}
		runQueueOps(t, c, ops)
	})
}
