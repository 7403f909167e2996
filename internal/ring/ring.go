// Package ring provides a growable FIFO queue backed by a circular
// buffer. Device models previously popped with `q = q[1:]` and pushed
// with append, which leaks the consumed prefix until the next regrowth
// and reallocates the backing array over and over in steady state; the
// ring reuses one backing array forever once it reaches the queue's peak
// depth.
package ring

// Queue is a FIFO of T. The zero value is an empty queue ready for use.
type Queue[T any] struct {
	buf        []T
	head, tail int // tail is one past the last element when len > 0
	n          int
}

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v to the back of the queue.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[q.tail] = v
	q.tail++
	if q.tail == len(q.buf) {
		q.tail = 0
	}
	q.n++
}

// Pop removes and returns the front element; it panics on an empty queue.
func (q *Queue[T]) Pop() T {
	if q.n == 0 {
		panic("ring: Pop from empty queue")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // don't retain pointers past their dequeue
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return v
}

// Peek returns the front element without removing it; it panics on an
// empty queue.
func (q *Queue[T]) Peek() T {
	if q.n == 0 {
		panic("ring: Peek of empty queue")
	}
	return q.buf[q.head]
}

// At returns the i-th element from the front (0 = front) without
// removing it.
func (q *Queue[T]) At(i int) T { return *q.Ref(i) }

// Ref returns a pointer to the i-th element from the front (0 = front),
// for in-place updates. It stays valid until the next Push, which may
// move the backing array.
func (q *Queue[T]) Ref(i int) *T {
	if i < 0 || i >= q.n {
		panic("ring: index out of range")
	}
	j := q.head + i
	if j >= len(q.buf) {
		j -= len(q.buf)
	}
	return &q.buf[j]
}

// Reset empties the queue, zeroing stored elements so no pointers are
// retained, while keeping the backing array for reuse.
func (q *Queue[T]) Reset() {
	var zero T
	for i := 0; i < q.n; i++ {
		j := q.head + i
		if j >= len(q.buf) {
			j -= len(q.buf)
		}
		q.buf[j] = zero
	}
	q.head, q.tail, q.n = 0, 0, 0
}

func (q *Queue[T]) grow() {
	newCap := len(q.buf) * 2
	if newCap == 0 {
		newCap = 8
	}
	buf := make([]T, newCap)
	for i := 0; i < q.n; i++ {
		j := q.head + i
		if j >= len(q.buf) {
			j -= len(q.buf)
		}
		buf[i] = q.buf[j]
	}
	q.buf = buf
	q.head, q.tail = 0, q.n
	if q.tail == len(q.buf) {
		q.tail = 0
	}
}
