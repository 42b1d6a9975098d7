package vclock

import (
	"slices"
	"testing"
)

// TestQueuePopRun: entries pushed at the instant being drained — a callback
// scheduling more work "now" — pop after the entries already queued for that
// instant, and before the next instant.
func TestQueuePopRun(t *testing.T) {
	var q Queue[int]
	q.Push(Microsecond, 1)
	q.Push(Microsecond, 2)
	q.Push(2*Microsecond, 3)

	var got []int
	for {
		e, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, e.Payload)
		if e.Payload == 1 {
			q.Push(Microsecond, 4) // pushed while draining 1µs
		}
	}
	if want := []int{1, 2, 4, 3}; !slices.Equal(got, want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
}

// TestQueueReset: a reset queue is empty, restarts its sequence numbers,
// and stays correct when reused after a large population.
func TestQueueReset(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 500; i++ {
		q.Push(Time(i%13)*Microsecond, i)
	}
	q.Reset()
	if len(q.h) != 0 {
		t.Fatalf("len = %d after reset", len(q.h))
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop succeeded on a reset queue")
	}
	if seq := q.Push(Microsecond, 42); seq != 1 {
		t.Fatalf("first seq after reset = %d, want 1", seq)
	}
	e, ok := q.Pop()
	if !ok || e.Payload != 42 {
		t.Fatalf("pop after reset = %+v, %v", e, ok)
	}
}

// TestQueueWarmAllocs: once a queue has held its peak population, a Reset
// keeps the capacity, and Push and Pop at or below that population
// allocate nothing — the engine's zero-allocation event traffic rests on it.
func TestQueueWarmAllocs(t *testing.T) {
	const n = 1024
	var q Queue[*int]
	payload := new(int)
	for i := 0; i < n; i++ {
		q.Push(Time(i)*Microsecond, payload)
	}
	q.Reset()
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < n; i++ {
			q.Push(Time(i%7)*Nanosecond, payload)
		}
		for len(q.h) > 0 {
			q.Pop()
		}
		q.Reset()
	})
	if allocs != 0 {
		t.Fatalf("warm Push/Pop allocated %.1f times per run, want 0", allocs)
	}
}
