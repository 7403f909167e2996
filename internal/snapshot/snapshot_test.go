package snapshot

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func TestEncoderDecoderRoundTrip(t *testing.T) {
	var e Encoder
	e.U32(7)
	e.U64(1 << 60)
	e.I64(-42)
	e.Int(12345)
	e.F64(3.14159)
	e.Bool(true)
	e.Bool(false)
	e.Str("hello")
	e.Raw([]byte{1, 2, 3})

	// Int, F64 and Bool have no decoder (nothing reads a component image
	// back); pin their layout by the bytes they write: Int as an int64,
	// F64 as its IEEE-754 bits, both little-endian, Bool as one byte.
	var want []byte
	want = binary.LittleEndian.AppendUint64(want, 12345)
	want = binary.LittleEndian.AppendUint64(want, math.Float64bits(3.14159))
	want = append(want, 1, 0)
	const at = 4 + 8 + 8
	if got := e.Bytes()[at : at+len(want)]; !bytes.Equal(got, want) {
		t.Errorf("Int/F64/Bool bytes = %x, want %x", got, want)
	}

	d := NewDecoder(e.Bytes())
	if got := d.U32(); got != 7 {
		t.Errorf("U32 = %d", got)
	}
	if got := d.U64(); got != 1<<60 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	d.take(len(want))
	if got := d.Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	raw := d.Raw()
	if len(raw) != 3 || raw[0] != 1 || raw[2] != 3 {
		t.Errorf("Raw = %v", raw)
	}
	if d.Err() != nil {
		t.Fatalf("decode error: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Errorf("remaining = %d", d.Remaining())
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.U64() // short read
	if d.Err() == nil {
		t.Fatal("expected truncation error")
	}
	// Every subsequent accessor must return zero values, not panic.
	if d.U32() != 0 || d.I64() != 0 || d.Str() != "" || d.Raw() != nil {
		t.Error("accessors after error must return zero values")
	}
}

// fakeComp is a trivial Snapshotter for registry tests.
type fakeComp struct {
	a int64
	b float64
}

func (f *fakeComp) Snapshot(e *Encoder) { e.I64(f.a); e.F64(f.b) }

func TestRegistryRoundTripAndDigests(t *testing.T) {
	r := NewRegistry()
	c1 := &fakeComp{a: 1, b: 2.5}
	c2 := &fakeComp{a: -7, b: 0}
	r.Register("alpha", c1)
	r.Register("beta", c2)

	img := r.EncodeAll()
	d1 := r.Digests()

	// The image splits back into the registered components, in order,
	// each hashing to its live digest.
	order, _, err := DecodeState(img)
	if err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	if len(order) != len(d1) {
		t.Fatalf("image has %d components, registry %d", len(order), len(d1))
	}
	for i := range order {
		if order[i] != d1[i] {
			t.Errorf("component %d: image %+v, live %+v", i, order[i], d1[i])
		}
	}

	// The image must re-encode identically (deterministic encoding).
	if string(r.EncodeAll()) != string(img) {
		t.Error("re-encoded image differs")
	}

	c1.a = 99
	if d2 := r.Digests(); Combined(d2) == Combined(d1) {
		t.Fatal("digest did not change after mutation")
	}
}

func TestFirstDivergence(t *testing.T) {
	mk := func(hashes ...uint64) Frame {
		f := Frame{At: 1000, Events: 5}
		names := []string{"engine", "pcie", "nic"}
		for i, h := range hashes {
			f.Digests = append(f.Digests, Digest{Component: names[i], Hash: h})
		}
		return f
	}
	a := &Timeline{Frames: []Frame{mk(1, 2, 3), mk(4, 5, 6)}}
	b := &Timeline{Frames: []Frame{mk(1, 2, 3), mk(4, 9, 6)}}
	div, ok := FirstDivergence(a, b)
	if !ok {
		t.Fatal("expected divergence")
	}
	if div.Component != "pcie" || div.FrameIndex != 1 {
		t.Errorf("got %+v", div)
	}
	if _, ok := FirstDivergence(a, a); ok {
		t.Error("identical timelines must not diverge")
	}
}

// TestVerifyReplay: a replay is verified only when every frame, the
// frame count and the final digest all match — a strict prefix, which
// FirstDivergence forgives, is a failure here.
func TestVerifyReplay(t *testing.T) {
	mk := func(hashes ...uint64) Frame {
		f := Frame{At: 1000, Events: 5}
		for i, h := range hashes {
			f.Digests = append(f.Digests, Digest{Component: []string{"engine", "pcie"}[i], Hash: h})
		}
		return f
	}
	rec := &Timeline{Frames: []Frame{mk(1, 2), mk(3, 4)}}
	for _, c := range []struct {
		name    string
		replay  *Timeline
		final   uint64
		wantErr string
	}{
		{"identical", &Timeline{Frames: []Frame{mk(1, 2), mk(3, 4)}}, 7, ""},
		{"strict prefix", &Timeline{Frames: []Frame{mk(1, 2)}}, 7, "1 digest frames, the first run 2"},
		{"divergent component", &Timeline{Frames: []Frame{mk(1, 2), mk(3, 9)}}, 7, `component "pcie" diverged`},
		{"final only", &Timeline{Frames: []Frame{mk(1, 2), mk(3, 4)}}, 8, "final digest"},
	} {
		err := VerifyReplay(rec, 7, c.replay, c.final)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.wantErr)
		}
		// The check is symmetric in which run is the recording.
		if rev := VerifyReplay(c.replay, c.final, rec, 7); (rev == nil) != (err == nil) {
			t.Errorf("%s: reversed arguments give %v, forward %v", c.name, rev, err)
		}
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Register("x", &fakeComp{a: 42, b: 1.5})
	ck := &Checkpoint{
		Meta:        map[string]string{"scenario": "storm", "seed": "7"},
		VirtualTime: 83_000_000,
		Events:      123456,
		Timeline: Timeline{Frames: []Frame{
			{At: 1_000_000, Events: 10, Digests: []Digest{{Component: "x", Hash: 0xdead}}},
		}},
		State: r.EncodeAll(),
	}
	path := filepath.Join(t.TempDir(), "ck.snap")
	if err := ck.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.Get("scenario") != "storm" || got.Get("seed") != "7" {
		t.Errorf("meta = %v", got.Meta)
	}
	if got.VirtualTime != ck.VirtualTime || got.Events != ck.Events {
		t.Errorf("position = %d/%d", got.VirtualTime, got.Events)
	}
	if got.Timeline.Len() != 1 || got.Timeline.Frames[0].Digests[0].Hash != 0xdead {
		t.Errorf("timeline = %+v", got.Timeline)
	}
	order, blobs, err := DecodeState(got.State)
	if err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	if len(order) != 1 || order[0].Component != "x" || len(blobs["x"]) == 0 {
		t.Errorf("state = %v", order)
	}

	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Error("expected error for missing file")
	}
}
