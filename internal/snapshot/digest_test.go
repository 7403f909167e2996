package snapshot

import (
	"hash/fnv"
	"strings"
	"testing"
)

// blobComponent writes n records of every primitive kind, including
// strings and raw blobs far longer than any one write, so a streamed
// digest sees every field shape at every size.
type blobComponent struct{ n int }

var (
	long = strings.Repeat("fluid/packet seam ", 512) // ~9 KB
	raw  = []byte(long)
)

func (c blobComponent) Snapshot(e *Encoder) {
	e.Int(c.n)
	for i := 0; i < c.n; i++ {
		e.U32(uint32(i))
		e.U64(uint64(i) * 0x9e3779b97f4a7c15)
		e.I64(-int64(i))
		e.F64(float64(i) / 3)
		e.Bool(i%3 == 0)
		e.Str(long[:i%len(long)])
		e.Raw(raw[:(i*7)%len(raw)])
	}
	e.Str("")
	e.Raw(nil)
}

func (blobComponent) Restore(*Decoder) error { return nil }

// TestDigestsMatchEncodedBlobs: every streamed digest equals FNV-1a
// (hash/fnv, independent of the streaming code) over the component's
// blob in an EncodeAll image, for encodings from a few bytes to
// megabytes.
func TestDigestsMatchEncodedBlobs(t *testing.T) {
	r := NewRegistry()
	r.Register("empty", blobComponent{n: 0})
	r.Register("small", blobComponent{n: 3})
	r.Register("large", blobComponent{n: 2000})
	order, blobs, err := DecodeState(r.EncodeAll())
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs["large"]) < 1<<20 {
		t.Fatalf("large blob is %d bytes, want over 1 MB", len(blobs["large"]))
	}
	got := r.Digests()
	if len(got) != len(order) {
		t.Fatalf("%d digests for %d components", len(got), len(order))
	}
	for i, d := range got {
		h := fnv.New64a()
		h.Write(blobs[d.Component])
		if d != order[i] || d.Hash != h.Sum64() {
			t.Errorf("component %q: streamed digest %#x, decoded %+v, hash/fnv %#x",
				d.Component, d.Hash, order[i], h.Sum64())
		}
	}
}

// TestDigestsNoAlloc: a digest frame allocates the same small constant
// whatever the size of the state it hashes — no image is built.
func TestDigestsNoAlloc(t *testing.T) {
	allocs := func(n int) float64 {
		r := NewRegistry()
		r.Register("a", blobComponent{n: n})
		r.Register("b", blobComponent{n: n})
		return testing.AllocsPerRun(5, func() { r.Digests() })
	}
	small, large := allocs(1), allocs(2000)
	if large != small {
		t.Fatalf("Digests allocates %.0f times over ~4 MB of state, %.0f over a few bytes", large, small)
	}
	// The returned slice and the hashing encoder.
	if small > 2 {
		t.Fatalf("Digests allocates %.0f times per call, want at most 2", small)
	}
}
