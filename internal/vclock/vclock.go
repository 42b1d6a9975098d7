// Package vclock provides the virtual-time base used by the whole
// Cluster-Booster simulation platform.
//
// Every simulated execution context (an MPI rank, a device, a file-system
// server) owns a Clock. Computation advances the clock locally; communication
// merges clocks so that causality is respected: a message received at virtual
// time t forces the receiver's clock to at least t. This is the standard
// conservative logical-process scheme — for deterministic message-passing
// programs it reproduces exactly the timing the modelled hardware would show,
// independent of host scheduling.
package vclock

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time float64

// Common durations, expressed as Time deltas.
const (
	Nanosecond  Time = 1e-9
	Microsecond Time = 1e-6
	Millisecond Time = 1e-3
	Second      Time = 1
)

// Never is a virtual time later than every event: the +Inf sentinel used
// where a bound must never bind (a "no pending event" minimum). It compares
// correctly against any finite Time.
var Never = Time(math.Inf(1))

// Seconds returns t as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

// Micros returns t in microseconds.
func (t Time) Micros() float64 { return float64(t) * 1e6 }

// Millis returns t in milliseconds.
func (t Time) Millis() float64 { return float64(t) * 1e3 }

// String formats the time with an auto-selected unit, e.g. "1.80µs", "34.2s".
func (t Time) String() string {
	a := math.Abs(float64(t))
	switch {
	case a == 0:
		return "0s"
	case a < 1e-6:
		return fmt.Sprintf("%.1fns", float64(t)*1e9)
	case a < 1e-3:
		return fmt.Sprintf("%.2fµs", float64(t)*1e6)
	case a < 1:
		return fmt.Sprintf("%.2fms", float64(t)*1e3)
	default:
		return fmt.Sprintf("%.2fs", float64(t))
	}
}

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Clock is a monotonically non-decreasing virtual clock. The zero value is a
// clock at time 0, ready to use. Clock is not safe for concurrent use; each
// simulated execution context owns exactly one and only that context advances
// it. (Cross-context time transfer happens through message timestamps.)
type Clock struct {
	now Time
}

// NewClock returns a clock set to start.
func NewClock(start Time) *Clock { return &Clock{now: start} }

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. Negative d is a programming error and
// panics: virtual time never runs backwards.
func (c *Clock) Advance(d Time) Time {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative advance %v", d))
	}
	c.now += d
	return c.now
}

// AdvanceTo moves the clock forward to t if t is later than now; earlier
// timestamps are ignored (they carry no new causal information).
func (c *Clock) AdvanceTo(t Time) Time {
	if t > c.now {
		c.now = t
	}
	return c.now
}

// SharedClock is an occupancy tracker for passive shared resources (links,
// devices, file-system servers) that serialise requests from many simulated
// contexts. It is an execution-kernel resource: the discrete-event kernel
// (internal/engine) runs exactly one task at a time, so reservations are
// already serialised and the tracker needs no locking of its own. (Code
// outside a kernel — result assembly, checkpoint costing after a run — is
// likewise single-goroutine per simulated system.)
//
// Reserve books the first window of the requested duration that starts no
// earlier than ready. Crucially, reservations are placed by *virtual* time,
// not by call order: requests reach the resource in task-schedule order, and
// a request with an early virtual ready time must be able to fill a gap
// before windows that were booked earlier but lie later in virtual time.
// The tracker therefore keeps the set of busy intervals (merged where
// adjacent) and first-fit allocates into the gaps.
type SharedClock struct {
	busy []interval // sorted by Start, pairwise disjoint, adjacent merged
}

type interval struct{ Start, End Time }

// NewSharedClock returns a shared resource clock that is fully free from
// start onwards (and, like an idle device, also before it).
func NewSharedClock(start Time) *SharedClock { return &SharedClock{} }

// Reserve books the resource for dur starting no earlier than ready, and
// returns the start and end of the granted window. dur must be >= 0.
func (s *SharedClock) Reserve(ready Time, dur Time) (start, end Time) {
	if dur < 0 {
		panic(fmt.Sprintf("vclock: negative reservation %v", dur))
	}
	start = ready
	// Common case: the request starts at or after every booked window, so it
	// appends (or extends the last window) without searching the history.
	if n := len(s.busy); n == 0 || s.busy[n-1].End <= start {
		end = start + dur
		s.insert(interval{start, end}, n)
		return start, end
	}
	// Find the first busy interval that could overlap [start, start+dur):
	// binary search for the first interval with End > start.
	lo, hi := 0, len(s.busy)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.busy[mid].End > start {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	i := lo
	for ; i < len(s.busy); i++ {
		if s.busy[i].Start >= start+dur {
			break // the gap before this interval fits the request
		}
		start = s.busy[i].End
	}
	end = start + dur
	s.insert(interval{start, end}, i)
	return start, end
}

// insert places iv at index i (its sorted position) and merges with adjacent
// intervals where they touch.
func (s *SharedClock) insert(iv interval, i int) {
	// Merge with the predecessor if it touches.
	if i > 0 && s.busy[i-1].End == iv.Start {
		s.busy[i-1].End = iv.End
		// Merge with the successor too if now touching.
		if i < len(s.busy) && s.busy[i].Start == s.busy[i-1].End {
			s.busy[i-1].End = s.busy[i].End
			s.busy = append(s.busy[:i], s.busy[i+1:]...)
		}
		return
	}
	// Merge with the successor if it touches.
	if i < len(s.busy) && s.busy[i].Start == iv.End {
		s.busy[i].Start = iv.Start
		return
	}
	s.busy = append(s.busy, interval{})
	copy(s.busy[i+1:], s.busy[i:])
	s.busy[i] = iv
}

// FreeAt reports the end of the last booked window (0 if none).
func (s *SharedClock) FreeAt() Time {
	if len(s.busy) == 0 {
		return 0
	}
	return s.busy[len(s.busy)-1].End
}
