package sim

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/snapshot"
)

// TestEngineDigestTracksDraws: the engine image records the RNG draw
// count, so one extra draw — with the clock, event count and queue
// unchanged — must change the engine digest.
func TestEngineDigestTracksDraws(t *testing.T) {
	digest := func(extra int) uint64 {
		e := NewEngine(42)
		for i := 0; i < 10; i++ {
			e.After(Time(i*10), func() { e.Rand().Float64() })
		}
		e.Run()
		for i := 0; i < extra; i++ {
			e.Rand().Int63()
		}
		var enc snapshot.Encoder
		e.Snapshot(&enc)
		return snapshot.HashBytes(enc.Bytes())
	}
	if digest(0) != digest(0) {
		t.Fatal("identical engines digest differently")
	}
	if digest(0) == digest(1) {
		t.Fatal("one extra RNG draw left the engine digest unchanged")
	}
}

func TestCountingSourcePreservesSequence(t *testing.T) {
	// The counting wrapper must not perturb the standard sequence.
	plain := NewEngineRandReference(7, 100)
	e := NewEngine(7)
	for i, want := range plain {
		if got := e.Rand().Int63(); got != want {
			t.Fatalf("draw %d = %d, want %d", i, got, want)
		}
	}
	if e.RNGDraws() != 100 {
		t.Fatalf("draws = %d, want 100", e.RNGDraws())
	}
}

func TestWaitGraphClassify(t *testing.T) {
	// Deadlock: two wedged nodes waiting on each other.
	g := NewWaitGraph()
	g.AddNode("nic-dma", true, false, "8 packets queued")
	g.AddNode("pcie-credits", true, false, "0/64 lines free")
	g.AddNode("iio-release", true, false, "64 lines sequestered")
	g.AddNode("fabric", true, true, "draining")
	g.AddEdge("nic-dma", "pcie-credits", "needs 8 lines")
	g.AddEdge("pcie-credits", "iio-release", "pool refills on release")
	g.AddEdge("iio-release", "pcie-credits", "release path wedged")
	class, cycle := g.Classify()
	if class != StallDeadlock {
		t.Fatalf("class = %v, want deadlock", class)
	}
	if len(cycle) != 2 || cycle[0] != "pcie-credits" || cycle[1] != "iio-release" {
		t.Fatalf("cycle = %v", cycle)
	}
	if s := g.String(); !strings.Contains(s, "deadlock") || !strings.Contains(s, "WEDGED") {
		t.Errorf("rendered graph missing verdict:\n%s", s)
	}

	// Starvation: wedged but acyclic.
	g2 := NewWaitGraph()
	g2.AddNode("a", true, false, "")
	g2.AddNode("b", false, false, "")
	g2.AddEdge("a", "b", "waiting")
	if class, members := g2.Classify(); class != StallStarvation || len(members) != 1 || members[0] != "a" {
		t.Fatalf("class = %v members = %v, want starvation [a]", class, members)
	}

	// Idle: demand satisfied or absent.
	g3 := NewWaitGraph()
	g3.AddNode("a", false, false, "")
	g3.AddNode("b", true, true, "")
	if class, _ := g3.Classify(); class != StallIdle {
		t.Fatalf("class = %v, want idle", class)
	}
}

func TestSentinelDetectsStall(t *testing.T) {
	e := NewEngine(1)
	var progress uint64
	demand := true

	s := NewSentinel(e, SentinelConfig{Window: 100, Check: 25, Policy: SentinelAbort})
	s.AddProbe("work", func() uint64 { return progress })
	s.SetDemand(func() bool { return demand })
	s.SetGraphBuilder(func() *WaitGraph {
		g := NewWaitGraph()
		g.AddNode("worker", true, false, "blocked")
		g.AddNode("resource", true, false, "empty")
		g.AddEdge("worker", "resource", "needs one")
		g.AddEdge("resource", "worker", "refilled by worker")
		return g
	})
	var gotReport *StallReport
	s.OnStall(func(r *StallReport) { gotReport = r })
	s.Start()

	// Progress until t=200, then wedge. A background ticker keeps the
	// event queue non-empty (the stalled components schedule nothing).
	app := NewTicker(e, 10, func() {
		if e.Now() <= 200 {
			progress++
		}
	})
	defer app.Stop()

	e.RunUntil(1000)
	if gotReport == nil {
		t.Fatal("sentinel did not trip")
	}
	if s.Report() != gotReport {
		t.Fatal("Report() does not return the first report")
	}
	// Stall begins at 200; detection must land within [300, 300+Check].
	if gotReport.DetectedAt < 300 || gotReport.DetectedAt > 325 {
		t.Errorf("detected at %v, want within one check of 300", gotReport.DetectedAt)
	}
	if gotReport.Class != StallDeadlock || len(gotReport.Cycle) != 2 {
		t.Errorf("class = %v cycle = %v", gotReport.Class, gotReport.Cycle)
	}
	// Abort policy must have stopped the engine at detection time.
	if e.Now() != 1000 {
		t.Errorf("now = %v, want 1000 after RunUntil completes the clock", e.Now())
	}
	if s.Stalls != 1 {
		t.Errorf("stalls = %d, want 1 (sentinel stops after abort)", s.Stalls)
	}
}

func TestSentinelIgnoresIdleAndProgress(t *testing.T) {
	e := NewEngine(1)
	var progress uint64
	s := NewSentinel(e, SentinelConfig{Window: 100, Check: 25})
	s.AddProbe("work", func() uint64 { return progress })
	s.SetDemand(func() bool { return false }) // never demand
	s.Start()
	tick := NewTicker(e, 10, func() {})
	e.RunUntil(2000)
	tick.Stop()
	if s.Report() != nil {
		t.Fatal("sentinel tripped without demand")
	}

	// With demand but steady progress: no trip either.
	e2 := NewEngine(1)
	var p2 uint64
	s2 := NewSentinel(e2, SentinelConfig{Window: 100, Check: 25})
	s2.AddProbe("work", func() uint64 { return p2 })
	s2.SetDemand(func() bool { return true })
	s2.Start()
	t2 := NewTicker(e2, 50, func() { p2++ })
	e2.RunUntil(2000)
	t2.Stop()
	s2.Stop()
	if s2.Report() != nil {
		t.Fatal("sentinel tripped despite steady progress")
	}
}

func TestSentinelEscapePolicy(t *testing.T) {
	e := NewEngine(1)
	var progress uint64
	wedged := true

	s := NewSentinel(e, SentinelConfig{Window: 100, Check: 25, Policy: SentinelEscape})
	s.AddProbe("work", func() uint64 { return progress })
	s.SetDemand(func() bool { return wedged })
	escapes := 0
	s.SetEscape(func() bool {
		escapes++
		wedged = false // escape frees the resource
		return true
	})
	s.Start()
	app := NewTicker(e, 10, func() {})
	e.RunUntil(1000)
	app.Stop()
	s.Stop()

	if escapes != 1 {
		t.Fatalf("escape ran %d times, want 1", escapes)
	}
	if s.Report() == nil || !s.Report().Escaped {
		t.Fatal("report missing or not marked escaped")
	}
	// Escape policy must not stop the engine.
	if e.Now() != 1000 {
		t.Fatalf("now = %v, want 1000", e.Now())
	}
}

// TestTimerSnapshotState: an armed timer, a disarmed one and one armed
// for a different deadline must all encode differently; identical
// timers encode identically.
func TestTimerSnapshotState(t *testing.T) {
	e := NewEngine(1)
	encode := func(tm *Timer) string {
		var enc snapshot.Encoder
		tm.SnapshotState(&enc)
		return string(enc.Bytes())
	}
	armedAt := func(d Time) *Timer {
		tm := NewTimer(e, func() {})
		tm.Reset(d)
		return tm
	}
	armed := armedAt(500)
	disarmed := armedAt(500)
	disarmed.Stop()
	moved := armedAt(700)

	if encode(armed) != encode(armedAt(500)) {
		t.Fatal("identical timers encode differently")
	}
	if encode(armed) == encode(disarmed) {
		t.Fatal("armed and disarmed timers encode alike")
	}
	if encode(armed) == encode(moved) {
		t.Fatal("timers with different deadlines encode alike")
	}
}

// NewEngineRandReference returns the first n Int63 draws of the unwrapped
// standard source for seed, as the reference sequence for the counting
// wrapper test.
func NewEngineRandReference(seed int64, n int) []int64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int63()
	}
	return out
}
