package vclock

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Microsecond.Seconds() != 1e-6 {
		t.Fatalf("Microsecond = %v s, want 1e-6", Microsecond.Seconds())
	}
	if got := (2 * Millisecond).Micros(); math.Abs(got-2000) > 1e-9 {
		t.Fatalf("2ms = %v µs, want 2000", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{1.8 * Microsecond, "1.80µs"},
		{500 * Nanosecond, "500.0ns"},
		{2.5 * Millisecond, "2.50ms"},
		{34.2 * Second, "34.20s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%g) = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestMaxMin(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Fatal("Max broken")
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock(0)
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %v, want 0", c.Now())
	}
	c.Advance(3 * Microsecond)
	c.Advance(2 * Microsecond)
	if got := c.Now().Micros(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("clock at %vµs, want 5", got)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock(10)
	c.AdvanceTo(5) // earlier: ignored
	if c.Now() != 10 {
		t.Fatalf("AdvanceTo moved clock backwards to %v", c.Now())
	}
	c.AdvanceTo(15)
	if c.Now() != 15 {
		t.Fatalf("AdvanceTo(15) left clock at %v", c.Now())
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	NewClock(0).Advance(-1)
}

func TestSharedClockReserveSerialises(t *testing.T) {
	s := NewSharedClock()
	// First transfer: ready at 0, takes 10.
	st, en := s.Reserve(0, 10)
	if st != 0 || en != 10 {
		t.Fatalf("first reserve [%v,%v], want [0,10]", st, en)
	}
	// Second transfer ready at 3 must queue behind the first.
	st, en = s.Reserve(3, 5)
	if st != 10 || en != 15 {
		t.Fatalf("queued reserve [%v,%v], want [10,15]", st, en)
	}
	// A transfer ready after the link is free starts when ready.
	st, en = s.Reserve(100, 1)
	if st != 100 || en != 101 {
		t.Fatalf("idle reserve [%v,%v], want [100,101]", st, en)
	}
}

func TestSharedClockSerialisesEqualRequests(t *testing.T) {
	// SharedClock is an execution-kernel resource: requests arrive one at a
	// time (task-schedule order). Equal ready times must serialise into
	// adjacent, non-overlapping windows covering the total duration.
	s := NewSharedClock()
	const n = 64
	seen := make(map[Time]bool)
	for i := 0; i < n; i++ {
		st, en := s.Reserve(0, 1)
		if en-st != 1 {
			t.Fatalf("window [%v,%v] has wrong width", st, en)
		}
		if seen[st] {
			t.Fatalf("overlapping start %v", st)
		}
		seen[st] = true
	}
	if got := s.busy[len(s.busy)-1].End; got != n {
		t.Fatalf("free at %v, want %v", got, Time(n))
	}
}

func TestQuickClockMonotonic(t *testing.T) {
	// Property: any sequence of non-negative advances keeps the clock equal
	// to the running sum, and AdvanceTo never decreases it.
	f := func(steps []uint16) bool {
		c := NewClock(0)
		var sum Time
		for _, s := range steps {
			d := Time(s) * Nanosecond
			sum += d
			if c.Advance(d) != sum {
				return false
			}
		}
		before := c.Now()
		c.AdvanceTo(before / 2)
		return c.Now() == before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSharedClockNonOverlap(t *testing.T) {
	// Property: reservations with arbitrary ready times and durations always
	// produce pairwise-disjoint windows starting no earlier than ready.
	f := func(readies []uint16, durs []uint8) bool {
		s := NewSharedClock()
		type win struct{ st, en Time }
		var wins []win
		n := len(readies)
		if len(durs) < n {
			n = len(durs)
		}
		for i := 0; i < n; i++ {
			st, en := s.Reserve(Time(readies[i]), Time(durs[i]))
			if st < Time(readies[i]) || en-st != Time(durs[i]) {
				return false
			}
			for _, w := range wins {
				if st < w.en && w.st < en && en > st && w.en > w.st {
					return false // overlap of non-empty windows
				}
			}
			wins = append(wins, win{st, en})
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSharedClockGapFilling(t *testing.T) {
	// A request that is ready early must be able to fill a gap before a
	// window that was booked earlier in real time but later in virtual time
	// — goroutines reach shared resources in arbitrary real-time order.
	s := NewSharedClock()
	st, en := s.Reserve(100, 10) // late-virtual window booked first
	if st != 100 || en != 110 {
		t.Fatalf("first window [%v,%v]", st, en)
	}
	st, en = s.Reserve(0, 5) // early request arrives later: fills the gap
	if st != 0 || en != 5 {
		t.Fatalf("gap not filled: [%v,%v], want [0,5]", st, en)
	}
	// A request that does not fit a gap queues behind the blocking window.
	st, en = s.Reserve(95, 20)
	if st != 110 {
		t.Fatalf("oversized request got [%v,%v], want start 110", st, en)
	}
	// Exact fit into the remaining gap [5,95): ready 5, dur 90.
	st, en = s.Reserve(5, 90)
	if st != 5 || en != 95 {
		t.Fatalf("exact fit failed: [%v,%v]", st, en)
	}
}
