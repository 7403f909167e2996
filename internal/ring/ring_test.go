package ring

import "testing"

func TestFIFOOrder(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d, want 100", q.Len())
	}
	for i := 0; i < 100; i++ {
		if got := q.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len after drain = %d", q.Len())
	}
}

func TestWrapAround(t *testing.T) {
	var q Queue[int]
	next, expect := 0, 0
	// Interleave pushes and pops so head/tail wrap many times within a
	// small backing array.
	for round := 0; round < 50; round++ {
		for i := 0; i < 5; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < 4; i++ {
			if got := q.Pop(); got != expect {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, expect)
			}
			expect++
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != expect {
			t.Fatalf("drain: Pop = %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d values, pushed %d", expect, next)
	}
}

func TestPeekAndAt(t *testing.T) {
	var q Queue[string]
	q.Push("a")
	q.Push("b")
	q.Push("c")
	if q.Peek() != "a" {
		t.Fatalf("Peek = %q", q.Peek())
	}
	if q.At(2) != "c" {
		t.Fatalf("At(2) = %q", q.At(2))
	}
	q.Pop()
	if q.At(1) != "c" {
		t.Fatalf("At(1) after Pop = %q", q.At(1))
	}
	*q.Ref(1) = "z" // Ref updates the queued element in place
	if q.At(1) != "z" || q.Pop() != "b" || q.Pop() != "z" {
		t.Fatal("Ref did not update the element in place")
	}
}

func TestReset(t *testing.T) {
	var q Queue[*int]
	v := 7
	q.Push(&v)
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Len after Reset = %d", q.Len())
	}
	q.Push(&v)
	if *q.Pop() != 7 {
		t.Fatal("queue unusable after Reset")
	}
}

func TestEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty queue did not panic")
		}
	}()
	var q Queue[int]
	q.Pop()
}

func TestNoAllocSteadyState(t *testing.T) {
	var q Queue[int]
	// Prime to peak depth.
	for i := 0; i < 64; i++ {
		q.Push(i)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 64; i++ {
			q.Push(i)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Push/Pop allocates %.1f/op, want 0", allocs)
	}
}
