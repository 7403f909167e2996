package packet

import (
	"strings"
	"testing"

	"repro/internal/snapshot"
)

func TestPoolRecycles(t *testing.T) {
	p := NewPool(2)
	a := p.Get()
	b := p.Get()
	if p.News != 0 {
		t.Fatalf("pre-populated pool allocated %d packets", p.News)
	}
	c := p.Get() // miss: free list empty
	if p.News != 1 {
		t.Fatalf("News = %d, want 1", p.News)
	}
	if p.Live() != 3 {
		t.Fatalf("Live = %d, want 3", p.Live())
	}
	p.Put(a)
	got := p.Get()
	if got != a {
		t.Fatal("Get after Put did not reuse the released packet (LIFO)")
	}
	p.Put(got)
	p.Put(b)
	p.Put(c)
	if p.Live() != 0 {
		t.Fatalf("Live after full release = %d, want 0", p.Live())
	}
}

func TestPoolGetZeroesAndKeepsSackCapacity(t *testing.T) {
	p := NewPool(1)
	pkt := p.Get()
	pkt.Flow = FlowID{Src: 3, Dst: 4, SrcPort: 5, DstPort: 6}
	pkt.Seq, pkt.Ack = 100, 200
	pkt.Flags = FlagACK | FlagECE
	pkt.ECN = CE
	pkt.PayloadLen = 1500
	pkt.MarkedByHost = true
	pkt.SACK = append(pkt.SACK, SackBlock{1, 2}, SackBlock{3, 4})
	sackCap := cap(pkt.SACK)
	p.Put(pkt)

	got := p.Get()
	if got != pkt {
		t.Fatal("expected recycled packet")
	}
	if got.Flow != (FlowID{}) || got.Seq != 0 || got.Ack != 0 || got.Flags != 0 ||
		got.ECN != NotECT || got.PayloadLen != 0 || got.MarkedByHost || len(got.SACK) != 0 {
		t.Fatalf("recycled packet not zeroed: %+v", got)
	}
	if cap(got.SACK) != sackCap {
		t.Fatalf("SACK capacity %d not preserved across recycle (was %d)", cap(got.SACK), sackCap)
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	p := NewPool(0)
	pkt := p.Get()
	p.Put(pkt)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double release did not panic")
		}
		if !strings.Contains(r.(string), "double release") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	p.Put(pkt)
}

func TestPoolClonePutIsIndependent(t *testing.T) {
	p := NewPool(1)
	pkt := p.Get()
	clone := pkt.Clone()
	p.Put(pkt)
	p.Put(clone) // adopted, not a double release
	if p.FreeLen() != 2 {
		t.Fatalf("FreeLen = %d, want 2", p.FreeLen())
	}
}

func TestNilPoolFallsBack(t *testing.T) {
	var p *Pool
	pkt := p.Get()
	if pkt == nil {
		t.Fatal("nil pool Get returned nil")
	}
	p.Put(pkt) // no-op, must not panic
	p.Put(pkt) // still a no-op: no pool, no double-release tracking
	if p.Live() != 0 || p.FreeLen() != 0 {
		t.Fatal("nil pool reported state")
	}
}

// TestPoolSnapshotTracksState: identical churn encodes identically, and
// one more Get (which moves the counters and the free-list depth) does not.
func TestPoolSnapshotTracksState(t *testing.T) {
	encode := func(extraGets int) string {
		p := NewPool(4)
		held := []*Packet{p.Get(), p.Get(), p.Get()}
		p.Put(held[0])
		for i := 0; i < extraGets; i++ {
			p.Get()
		}
		var enc snapshot.Encoder
		p.Snapshot(&enc)
		return string(enc.Bytes())
	}
	if encode(0) != encode(0) {
		t.Fatal("identical pools encode differently")
	}
	if encode(0) == encode(1) {
		t.Fatal("an extra Get left the pool encoding unchanged")
	}
}

func TestPoolZeroAllocSteadyState(t *testing.T) {
	if poolDebugEnabled {
		t.Skip("provenance bookkeeping active (-race or packetdebug); exact-alloc guard runs in production builds")
	}
	p := NewPool(8)
	allocs := testing.AllocsPerRun(1000, func() {
		a := p.Get()
		b := p.Get()
		p.Put(b)
		p.Put(a)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates %.1f/op, want 0", allocs)
	}
}
