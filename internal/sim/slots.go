package sim

// Slots is a recycling slot table that maps values to dense uint64 keys,
// letting components thread pointers through the scalar args of a
// handler-table event without allocating. Put parks a value and returns
// its slot; Take retrieves it and frees the slot for reuse. The zero
// value is ready to use.
//
// Slot indices recycle LIFO, so a component that parks one value per
// in-flight event keeps its table as small as its peak concurrency.
type Slots[T any] struct {
	vals []T
	free []uint32
}

// Put parks v and returns its slot key.
func (s *Slots[T]) Put(v T) uint64 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		s.vals[slot] = v
		return uint64(slot)
	}
	s.vals = append(s.vals, v)
	return uint64(len(s.vals) - 1)
}

// Take retrieves the value parked at slot and frees the slot. The vacated
// entry is zeroed so the table never retains pointers past their event.
func (s *Slots[T]) Take(slot uint64) T {
	v := s.vals[slot]
	var zero T
	s.vals[slot] = zero
	s.free = append(s.free, uint32(slot))
	return v
}
