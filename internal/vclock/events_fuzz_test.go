package vclock

import (
	"sort"
	"testing"
)

// fuzzTimes is the time alphabet of the fuzzer: a small set with repeats so
// equal-time ties (the FIFO-stability case) occur constantly.
var fuzzTimes = []Time{0, 0, Microsecond, Microsecond, 2 * Microsecond, Millisecond, Second, -Microsecond}

// refEntry mirrors one live queue entry in the oracle.
type refEntry struct {
	at  Time
	seq uint64
}

// FuzzEventQueue drives the queue with an op stream decoded from the fuzz
// input and checks it against a naive oracle: every Pop must return the
// entry with the smallest (At, Seq) — earliest virtual time, FIFO among
// equal times — and Peek/Len must agree with the model at every step.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 0xF0, 0xF1, 4, 5, 0xFF})
	f.Add([]byte{0, 0, 0, 0xF0, 0xF0, 0xF0, 0xF0})
	f.Add([]byte{7, 6, 5, 4, 3, 2, 1, 0, 0xF8, 0xF8, 0xF8, 0xF8, 0xF8, 0xF8, 0xF8, 0xF8})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q Queue[any]
		var live []refEntry
		var nextSeq uint64
		for _, op := range ops {
			if op >= 0xF0 {
				// Pop, checked against the oracle's minimum.
				e, ok := q.Pop()
				if !ok {
					if len(live) != 0 {
						t.Fatalf("Pop empty with %d live entries", len(live))
					}
					continue
				}
				if len(live) == 0 {
					t.Fatalf("Pop returned %+v from an empty model", e)
				}
				min := 0
				for i, r := range live {
					if r.at < live[min].at || (r.at == live[min].at && r.seq < live[min].seq) {
						min = i
					}
				}
				want := live[min]
				if e.At != want.at || e.Seq != want.seq {
					t.Fatalf("Pop = (%v, seq %d), oracle wants (%v, seq %d)", e.At, e.Seq, want.at, want.seq)
				}
				if e.Payload.(uint64) != want.seq {
					t.Fatalf("payload %v does not travel with its event (seq %d)", e.Payload, want.seq)
				}
				live = append(live[:min], live[min+1:]...)
				continue
			}
			// Push with a time drawn from the tie-heavy alphabet; the payload
			// carries the expected sequence number so Pop can verify the
			// payload travels with its event.
			at := fuzzTimes[int(op)%len(fuzzTimes)]
			nextSeq++
			seq := q.Push(at, nextSeq)
			if seq != nextSeq {
				t.Fatalf("Push assigned seq %d, want the %d-th schedule number", seq, nextSeq)
			}
			live = append(live, refEntry{at: at, seq: seq})
		}
		if len(q.h) != len(live) {
			t.Fatalf("Len %d, model %d", len(q.h), len(live))
		}
		// Drain: the remainder must come out fully sorted by (At, Seq).
		var drained []refEntry
		for {
			e, ok := q.Pop()
			if !ok {
				break
			}
			drained = append(drained, refEntry{at: e.At, seq: e.Seq})
		}
		if len(drained) != len(live) {
			t.Fatalf("drained %d, model %d", len(drained), len(live))
		}
		if !sort.SliceIsSorted(drained, func(i, j int) bool {
			if drained[i].at != drained[j].at {
				return drained[i].at < drained[j].at
			}
			return drained[i].seq < drained[j].seq
		}) {
			t.Fatalf("drain not sorted by (At, Seq): %+v", drained)
		}
		if len(q.h) != 0 {
			t.Fatalf("Len %d after drain", len(q.h))
		}
		if _, ok := q.Peek(); ok {
			t.Fatal("Peek succeeded on a drained queue")
		}
	})
}

// FuzzEventQueuePeek checks Peek is always exactly the next Pop.
func FuzzEventQueuePeek(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0xF0, 4, 0xF0, 0xF0, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q Queue[any]
		for _, op := range ops {
			if op >= 0xF0 {
				peeked, pok := q.Peek()
				popped, ok := q.Pop()
				if pok != ok {
					t.Fatalf("Peek ok=%v, Pop ok=%v", pok, ok)
				}
				if ok && (peeked.At != popped.At || peeked.Seq != popped.Seq) {
					t.Fatalf("Peek %+v != Pop %+v", peeked, popped)
				}
				continue
			}
			q.Push(fuzzTimes[int(op)%len(fuzzTimes)], nil)
		}
	})
}
