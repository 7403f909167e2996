package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// flatByPackage decodes a runtime/pprof CPU profile and sums each
// sample's CPU time onto the package of its innermost frame (the flat
// attribution: inlined callees count for themselves, not their caller).
// Only the profile.proto fields this needs are decoded.
func flatByPackage(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("open profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("read profile: %w", err)
	}

	type sample struct {
		leaf   uint64 // first location id: the innermost frame
		values []int64
	}
	var (
		samples   []sample
		locFunc   = map[uint64]uint64{} // location id -> innermost function id
		funcName  = map[uint64]int64{}  // function id -> string index
		strs      []string
		valueSlot = -1 // index of the cpu/nanoseconds value
		types     [][2]int64
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s sample
			err := fields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					ids, err := varints(v, p)
					if len(ids) > 0 && s.leaf == 0 {
						s.leaf = ids[0]
					}
					return err
				case 2:
					vals, err := varints(v, p)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			err := fields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line; the first one is the innermost inlined frame
					if fn == 0 {
						return fields(p, func(m int, v uint64, _ []byte) error {
							if m == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, t := range types {
		if int(t[1]) < len(strs) && strs[t[1]] == "nanoseconds" {
			valueSlot = i
		}
	}
	if valueSlot < 0 && len(samples) > 0 {
		return nil, errors.New("profile has no nanoseconds sample type")
	}

	out := map[string]float64{}
	for _, s := range samples {
		if valueSlot >= len(s.values) {
			continue
		}
		name := "unknown"
		if idx, ok := funcName[locFunc[s.leaf]]; ok && int(idx) < len(strs) {
			name = strs[idx]
		}
		out[packageOf(name)] += float64(s.values[valueSlot]) / 1e9
	}
	return out, nil
}

// packageOf returns the import path of a symbol such as
// "repro/internal/ring.(*Queue[go.shape.*uint8]).Push": the text up to
// the first dot after the last slash, with receiver and type-argument
// brackets (which may hold slashes of their own) cut off first.
func packageOf(symbol string) string {
	s := symbol
	if i := strings.IndexAny(s, "[("); i >= 0 {
		s = s[:i]
	}
	slash := strings.LastIndexByte(s, '/')
	if dot := strings.IndexByte(s[slash+1:], '.'); dot >= 0 {
		return s[:slash+1+dot]
	}
	return s
}

// fields walks one protobuf message, calling fn with each field number
// and either its varint value (wire type 0) or its bytes (wire type 2).
// Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, v uint64, p []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var p []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			p, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, p); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated varint field's values: the single value v
// when unpacked (p == nil), or every value packed in p.
func varints(v uint64, p []byte) ([]uint64, error) {
	if p == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(p) > 0 {
		x, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out = append(out, x)
		p = p[n:]
	}
	return out, nil
}
