package vclock

import "testing"

// TestQueuePopRun: a same-instant run drains in one call, in seq order,
// and stops before the next instant.
func TestQueuePopRun(t *testing.T) {
	var q Queue[int]
	q.Push(Microsecond, 1)
	q.Push(Microsecond, 2)
	q.Push(2*Microsecond, 3)
	q.Push(Microsecond, 4)

	run := q.PopRun(nil)
	if len(run) != 3 {
		t.Fatalf("run of %d entries, want 3", len(run))
	}
	for i, e := range run {
		if e.At != Microsecond {
			t.Fatalf("run[%d].At = %v, want 1µs", i, e.At)
		}
		if i > 0 && e.Seq <= run[i-1].Seq {
			t.Fatalf("run not in seq order: %v", run)
		}
	}
	if len(q.h) != 1 {
		t.Fatalf("len = %d after run, want 1", len(q.h))
	}
	run = q.PopRun(run[:0])
	if len(run) != 1 || run[0].Payload != 3 {
		t.Fatalf("second run = %+v, want the 2µs entry", run)
	}
	if out := q.PopRun(nil); out != nil {
		t.Fatalf("PopRun on empty queue returned %v", out)
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
// keeps the capacity, and Push, Pop and PopRun at or below that population
// allocate nothing — the engine's zero-allocation event traffic rests on it.
func TestQueueWarmAllocs(t *testing.T) {
	const n = 1024
	var q Queue[*int]
	payload := new(int)
	for i := 0; i < n; i++ {
		q.Push(Time(i)*Microsecond, payload)
	}
	q.Reset()
	buf := make([]Entry[*int], 0, n)
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < n; i++ {
			q.Push(Time(i%7)*Nanosecond, payload)
		}
		for i := 0; i < n/2; i++ {
			q.Pop()
		}
		for len(q.h) > 0 {
			buf = q.PopRun(buf[:0])
		}
		q.Reset()
	})
	if allocs != 0 {
		t.Fatalf("warm Push/Pop/PopRun allocated %.1f times per run, want 0", allocs)
	}
}
