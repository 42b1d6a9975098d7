package vclock

import (
	"math/rand"
	"testing"
)

func TestEventQueueOrdersByTime(t *testing.T) {
	var q Queue[any]
	q.Push(3*Second, "c")
	q.Push(1*Second, "a")
	q.Push(2*Second, "b")
	want := []string{"a", "b", "c"}
	for _, w := range want {
		e, ok := q.Pop()
		if !ok || e.Payload.(string) != w {
			t.Fatalf("pop = %v/%v, want %q", e.Payload, ok, w)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on empty queue succeeded")
	}
}

// TestEventQueueFIFOAmongEqualTimes is the stability contract: events
// scheduled for the same virtual instant fire in schedule order, which is
// what makes the kernel's tiebreak — and the whole simulation —
// deterministic.
func TestEventQueueFIFOAmongEqualTimes(t *testing.T) {
	var q Queue[any]
	const n = 100
	for i := 0; i < n; i++ {
		q.Push(5*Microsecond, i)
	}
	for i := 0; i < n; i++ {
		e, ok := q.Pop()
		if !ok || e.Payload.(int) != i {
			t.Fatalf("equal-time pop %d = %v, want %d (FIFO violated)", i, e.Payload, i)
		}
	}
}

// TestEventQueueInterleavedFIFO mixes distinct and equal times under random
// interleaving of pushes and pops and checks the (time, schedule-order)
// invariant against a reference sort.
func TestEventQueueInterleavedFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q Queue[any]
	type ref struct {
		at  Time
		seq int
	}
	var live []ref
	seq := 0
	for step := 0; step < 5000; step++ {
		if rng.Intn(3) > 0 || len(live) == 0 {
			at := Time(rng.Intn(8)) * Microsecond
			q.Push(at, seq)
			live = append(live, ref{at, seq})
			seq++
			continue
		}
		// Reference: earliest time, then earliest insertion.
		best := 0
		for i, r := range live {
			if r.at < live[best].at || (r.at == live[best].at && r.seq < live[best].seq) {
				best = i
			}
		}
		e, ok := q.Pop()
		if !ok {
			t.Fatal("pop failed with live events")
		}
		if e.Payload.(int) != live[best].seq {
			t.Fatalf("step %d: pop = %d, want %d", step, e.Payload, live[best].seq)
		}
		live = append(live[:best], live[best+1:]...)
	}
	if q.Len() != len(live) {
		t.Fatalf("queue length %d, reference %d", q.Len(), len(live))
	}
}

func TestEventQueuePeek(t *testing.T) {
	var q Queue[any]
	if _, ok := q.Peek(); ok {
		t.Fatal("peek on empty queue succeeded")
	}
	q.Push(2*Second, "b")
	q.Push(1*Second, "a")
	e, ok := q.Peek()
	if !ok || e.Payload.(string) != "a" || q.Len() != 2 {
		t.Fatalf("peek = %v/%v len %d", e.Payload, ok, q.Len())
	}
}
