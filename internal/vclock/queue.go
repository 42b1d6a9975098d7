package vclock

// Queue is the event queue of the discrete-event kernel: a priority queue of
// timestamped entries ordered by (At, Seq) — earliest virtual time first,
// schedule order among equal times. Seq is assigned by the queue on every
// push, so the order is total and FIFO among equal times; the kernel's
// determinism rests on nothing else. Any correct priority queue over that
// order pops the identical sequence — see DESIGN.md ("Event-queue
// determinism").
//
// The structure is an implicit 4-ary min-heap. Push and pop are O(log n)
// with a shallow tree (half the depth of a binary heap) and sift loops that
// move a hole instead of swapping. Pushing into an empty heap and popping
// its only entry are O(1), which is the engine's direct-handoff pattern.
//
// Queue is generic over the payload so the engine can store its tagged event
// record inline with no interface boxing: pushing into a warm queue reuses
// the heap's capacity, so steady-state event traffic allocates nothing.
//
// The zero value is ready to use. Not safe for concurrent use.
type Queue[P any] struct {
	h   []Entry[P]
	seq uint64 // last assigned sequence number
}

// Entry is one queued occurrence: a payload due at a virtual time, with the
// queue-assigned schedule order Seq as the stable tiebreak.
type Entry[P any] struct {
	At      Time
	Seq     uint64
	Payload P
}

// before orders entries by (At, Seq).
func (e Entry[P]) before(o Entry[P]) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	return e.Seq < o.Seq
}

// arity is the heap's fan-out.
const arity = 4

// Len returns the number of pending entries.
func (q *Queue[P]) Len() int { return len(q.h) }

// Push schedules payload at time at and returns the entry's sequence number.
func (q *Queue[P]) Push(at Time, payload P) uint64 {
	q.seq++
	e := Entry[P]{At: at, Seq: q.seq, Payload: payload}
	h := append(q.h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	q.h = h
	return q.seq
}

// Pop removes and returns the earliest entry (by time, then schedule order).
// ok is false on an empty queue.
func (q *Queue[P]) Pop() (e Entry[P], ok bool) {
	n := len(q.h) - 1
	if n < 0 {
		return Entry[P]{}, false
	}
	h := q.h
	e = h[0]
	last := h[n]
	h[n] = Entry[P]{} // release payload reference
	h = h[:n]
	q.h = h
	if n == 0 {
		return e, true
	}
	// Sift the last entry down from the root's hole.
	i := 0
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+arity && j < n; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return e, true
}

// PopRun removes the earliest entry plus every further entry due at exactly
// the same virtual time, appending them to buf in (At, Seq) order, and
// returns the extended buffer. This is the wakeup-batching primitive: a
// collective fan-out that woke a whole tree level at one instant drains in
// one call, and the kernel hands the baton down the batch without touching
// the queue again. An empty queue returns buf unchanged.
func (q *Queue[P]) PopRun(buf []Entry[P]) []Entry[P] {
	first, ok := q.Pop()
	if !ok {
		return buf
	}
	buf = append(buf, first)
	for len(q.h) > 0 && q.h[0].At == first.At {
		e, _ := q.Pop()
		buf = append(buf, e)
	}
	return buf
}

// Peek returns the earliest entry without removing it.
func (q *Queue[P]) Peek() (e Entry[P], ok bool) {
	if len(q.h) == 0 {
		return Entry[P]{}, false
	}
	return q.h[0], true
}

// Reset empties the queue, releasing every payload reference but keeping the
// heap's capacity, so a recycled kernel's queue starts warm. The sequence
// counter restarts.
func (q *Queue[P]) Reset() {
	clear(q.h)
	q.h = q.h[:0]
	q.seq = 0
}
