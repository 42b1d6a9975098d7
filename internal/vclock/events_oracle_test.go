package vclock

import (
	"math/rand"
	"testing"
)

// Event is the oracle's boxed entry: a payload due at a virtual time, with
// the queue-assigned schedule order Seq as the tiebreak.
type Event struct {
	At      Time
	Seq     uint64
	Payload any
}

// heapQueue is the binary-heap event queue that backed the kernel from PR 3
// until the calendar queue replaced it. It is kept verbatim as the
// differential oracle: FuzzEventQueueVsHeap and TestEventQueueVsHeapPatterns
// drive it and Queue with the same op stream and demand identical pops,
// proving Queue preserves the (At, Seq) order — and with it the kernel's
// deterministic schedule — exactly.
type heapQueue struct {
	h   []Event
	seq uint64
}

func (q *heapQueue) Len() int { return len(q.h) }

func (q *heapQueue) Push(at Time, payload any) uint64 {
	q.seq++
	e := Event{At: at, Seq: q.seq, Payload: payload}
	q.h = append(q.h, e)
	q.up(len(q.h) - 1)
	return e.Seq
}

func (q *heapQueue) Pop() (e Event, ok bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	e = q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h[last] = Event{}
	q.h = q.h[:last]
	if last > 0 {
		q.down(0)
	}
	return e, true
}

func (q *heapQueue) Peek() (e Event, ok bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	return q.h[0], true
}

func (e Event) before(o Event) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	return e.Seq < o.Seq
}

func (q *heapQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.h[i].before(q.h[parent]) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *heapQueue) down(i int) {
	n := len(q.h)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.h[l].before(q.h[min]) {
			min = l
		}
		if r < n && q.h[r].before(q.h[min]) {
			min = r
		}
		if min == i {
			return
		}
		q.h[i], q.h[min] = q.h[min], q.h[i]
		i = min
	}
}

// diffOp is one step of the differential harness: a pop, or a push at At.
type diffOp struct {
	pop bool
	at  Time
}

// fuzzOps decodes the FuzzEventQueue encoding: bytes >= 0xF0 pop, everything
// else pushes a time from the tie-heavy alphabet.
func fuzzOps(ops []byte) []diffOp {
	out := make([]diffOp, len(ops))
	for i, op := range ops {
		if op >= 0xF0 {
			out[i] = diffOp{pop: true}
		} else {
			out[i] = diffOp{at: fuzzTimes[int(op)%len(fuzzTimes)]}
		}
	}
	return out
}

// runDifferential drives Queue and the heap oracle with the same op stream
// and fails on the first divergence. After the stream, both queues are
// drained and must agree entry for entry.
func runDifferential(t *testing.T, ops []diffOp) {
	t.Helper()
	var q Queue[any]
	var heap heapQueue
	step := func(op int) {
		qe, qok := q.Pop()
		he, hok := heap.Pop()
		if qok != hok {
			t.Fatalf("op %d: queue pop ok=%v, heap ok=%v", op, qok, hok)
		}
		if qok && (qe.At != he.At || qe.Seq != he.Seq) {
			t.Fatalf("op %d: queue popped (%v, seq %d), heap (%v, seq %d)",
				op, qe.At, qe.Seq, he.At, he.Seq)
		}
	}
	for i, op := range ops {
		if op.pop {
			step(i)
			continue
		}
		qs := q.Push(op.at, nil)
		hs := heap.Push(op.at, nil)
		if qs != hs {
			t.Fatalf("op %d: queue seq %d, heap seq %d", i, qs, hs)
		}
		if q.Len() != heap.Len() {
			t.Fatalf("op %d: queue len %d, heap len %d", i, q.Len(), heap.Len())
		}
	}
	for q.Len() > 0 || heap.Len() > 0 {
		step(-1)
	}
}

// FuzzEventQueueVsHeap is the differential fuzzer: Queue vs the retired
// binary heap, same ops, identical pops.
func FuzzEventQueueVsHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 0xF0, 0xF1, 4, 5, 0xFF})
	f.Add([]byte{0, 0, 0, 0xF0, 0xF0, 0xF0, 0xF0})
	f.Add([]byte{7, 6, 5, 4, 3, 2, 1, 0, 0xF8, 0xF8, 0xF8, 0xF8, 0xF8, 0xF8, 0xF8, 0xF8})
	f.Fuzz(func(t *testing.T, ops []byte) { runDifferential(t, fuzzOps(ops)) })
}

// clusteredOps is the population that degraded the calendar queue to O(n)
// pushes: timers spread over milliseconds mixed with wakeup bursts spaced
// nanoseconds apart (some at one instant), interleaved with pops, until n
// entries have been pushed. The live population climbs into the thousands.
func clusteredOps(n int, seed int64) []diffOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []diffOp
	now := Time(0)
	for pushed := 0; pushed < n; {
		if rng.Intn(4) == 0 {
			ops = append(ops, diffOp{at: now + Time(rng.Float64())*5*Millisecond})
			pushed++
		} else {
			base := now + Time(rng.Intn(1000))*Nanosecond
			k := 1 + rng.Intn(64)
			for j := 0; j < k; j++ {
				ops = append(ops, diffOp{at: base + Time(j/2)*Nanosecond})
			}
			pushed += k
		}
		for pops := rng.Intn(24); pops > 0; pops-- {
			ops = append(ops, diffOp{pop: true})
		}
		now += Time(rng.Intn(500)) * Nanosecond
	}
	return ops
}

// TestEventQueueVsHeapPatterns replays kernel-shaped op patterns through the
// differential harness: monotone pushes (timer-like), drain-to-empty cycles
// (the direct-handoff regime), same-instant bursts (collective fan-out),
// large population swings both ways, and the clustered timer/burst mix.
func TestEventQueueVsHeapPatterns(t *testing.T) {
	patterns := map[string][]byte{
		"monotone":     {0, 2, 4, 5, 0xF0, 0xF0, 0xF0, 0xF0},
		"pingpong":     {0, 0xF0, 1, 0xF0, 2, 0xF0, 3, 0xF0, 4, 0xF0},
		"same-instant": {1, 1, 1, 1, 1, 1, 1, 1, 0xF0, 0xF0, 1, 1, 0xF0},
	}
	var grow []byte
	for i := 0; i < 300; i++ {
		grow = append(grow, byte(i%8))
	}
	for i := 0; i < 280; i++ {
		grow = append(grow, 0xF0)
	}
	for i := 0; i < 64; i++ {
		grow = append(grow, byte(i%8), 0xF0, 0xF0)
	}
	patterns["resize-swing"] = grow
	for name, ops := range patterns {
		t.Run(name, func(t *testing.T) { runDifferential(t, fuzzOps(ops)) })
	}
	t.Run("clustered", func(t *testing.T) { runDifferential(t, clusteredOps(20000, 1)) })
}
