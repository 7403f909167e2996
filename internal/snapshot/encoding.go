// Package snapshot provides a versioned, deterministic binary encoding of
// simulation component state, per-component digests for divergence
// detection, and a checkpoint file format for replaying chaos runs.
//
// Design constraints (see DESIGN.md "Checkpoint/replay runtime"):
//
//   - Determinism: the same component state always encodes to the same
//     bytes. All fields are fixed-width little-endian; map-backed state is
//     encoded in sorted key order by its owner.
//   - Leaf package: only the standard library, so every model package
//     (sim, stats, nic, pcie, ...) can implement Snapshotter without an
//     import cycle.
//   - One-way: an image is digested, compared and stored in checkpoints,
//     never restored into a component. Resumption is replay-based (the
//     event queue holds closures, which have no serializable form): a
//     checkpoint records enough metadata to re-execute the run
//     deterministically and verify per-frame digests along the way.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encoder builds a deterministic binary image. All integers are
// little-endian fixed width; strings are u32-length-prefixed UTF-8.
// The zero value is ready to use.
//
// Registry.Digests drives Snapshot with a hashing Encoder instead: every
// byte is folded into an FNV-1a 64 sum as it is written and nothing is
// kept, so a digest costs no state-sized buffer. The sum equals
// HashBytes over the image a buffering Encoder would have built. A
// Snapshotter must therefore only write: Bytes and Len read nil and 0
// while hashing.
type Encoder struct {
	buf     []byte
	hashing bool
	sum     uint64 // running FNV-1a 64 while hashing
}

// FNV-1a 64 parameters (hash/fnv).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// foldLE folds the n low-order bytes of v, little-endian, into the
// running sum.
func (e *Encoder) foldLE(v uint64, n int) {
	h := e.sum
	for i := 0; i < n; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	e.sum = h
}

// foldBytes folds b into the running sum.
func foldBytes[T string | []byte](e *Encoder, b T) {
	h := e.sum
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * fnvPrime64
	}
	e.sum = h
}

// Bytes returns the encoded image.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the encoded size so far.
func (e *Encoder) Len() int { return len(e.buf) }

// U32 appends a fixed-width uint32.
func (e *Encoder) U32(v uint32) {
	if e.hashing {
		e.foldLE(uint64(v), 4)
		return
	}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 appends a fixed-width uint64.
func (e *Encoder) U64(v uint64) {
	if e.hashing {
		e.foldLE(v, 8)
		return
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends a fixed-width int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 as its IEEE-754 bits.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	if e.hashing {
		e.foldLE(uint64(b), 1)
		return
	}
	e.buf = append(e.buf, b)
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	if e.hashing {
		foldBytes(e, s)
		return
	}
	e.buf = append(e.buf, s...)
}

// Raw appends a length-prefixed byte blob.
func (e *Encoder) Raw(b []byte) {
	e.U32(uint32(len(b)))
	if e.hashing {
		foldBytes(e, b)
		return
	}
	e.buf = append(e.buf, b...)
}

// Decoder reads the container formats back (state images, checkpoints).
// Errors are sticky: after the first short read every accessor returns the
// zero value, and Err reports the failure, so a caller can decode
// unconditionally and check once at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps an encoded image.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("snapshot: truncated image (want %d bytes at offset %d of %d)", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U32 reads a uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := int(d.U32())
	if d.err != nil {
		return ""
	}
	return string(d.take(n))
}

// Raw reads a length-prefixed byte blob.
func (d *Decoder) Raw() []byte {
	n := int(d.U32())
	if d.err != nil {
		return nil
	}
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}
