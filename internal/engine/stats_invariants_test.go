package engine

import (
	"sync"
	"testing"

	"clusterbooster/internal/vclock"
)

// checkInvariants asserts the counter identities every clean run satisfies:
//
//   - Events == Switches + Kept + Callbacks: each processed event handed the
//     baton to another task, was consumed by the holder, or ran a callback.
//   - PeakParked <= Parks: a task must park to count as parked.
//   - PeakParked <= Tasks - 1: at least one task holds the baton (or is the
//     one whose event is pending) while others park.
func checkInvariants(t *testing.T, s Stats) {
	t.Helper()
	if s.Events != s.Switches+s.Kept+s.Callbacks {
		t.Fatalf("events=%d != switches=%d + kept=%d + callbacks=%d",
			s.Events, s.Switches, s.Kept, s.Callbacks)
	}
	if uint64(s.PeakParked) > s.Parks {
		t.Fatalf("peak_parked=%d > parks=%d", s.PeakParked, s.Parks)
	}
	if s.Tasks > 0 && s.PeakParked > s.Tasks-1 {
		t.Fatalf("peak_parked=%d > tasks-1=%d", s.PeakParked, s.Tasks-1)
	}
}

// TestStatsInvariantsPingPong: the Park/WakeAt alternation regime.
func TestStatsInvariantsPingPong(t *testing.T) {
	e := New()
	a, b := e.NewTask("a"), e.NewTask("b")
	a.StartAt(0)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer a.Exit()
		a.WaitStart()
		for i := 1; i <= 50; i++ {
			if i == 1 {
				b.StartAt(vclock.Time(i) * vclock.Microsecond)
			} else {
				b.WakeAt(vclock.Time(i) * vclock.Microsecond)
			}
			if i < 50 {
				a.Park()
			}
		}
	}()
	go func() {
		defer wg.Done()
		defer b.Exit()
		b.WaitStart()
		for i := 1; i < 50; i++ {
			a.WakeAt(vclock.Time(i) * vclock.Microsecond)
			b.Park()
		}
	}()
	e.Run()
	wg.Wait()
	st := e.stats
	checkInvariants(t, st)
	if st.Kept != 0 {
		t.Fatalf("pure park/wake run kept the baton %d times", st.Kept)
	}
	if st.PeakParked != 1 {
		t.Fatalf("peak_parked = %d, want 1 (one side parked at a time)", st.PeakParked)
	}
}

// TestStatsInvariantsSleepAndCallbacks: timers (keep-the-baton fast path)
// mixed with callback events.
func TestStatsInvariantsSleepAndCallbacks(t *testing.T) {
	e := New()
	ran := 0
	tk := e.NewTask("sleeper")
	tk.StartAt(0)
	e.CallAt(5*vclock.Microsecond, func() { ran++ })
	e.CallAt(15*vclock.Microsecond, func() { ran++ })
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer tk.Exit()
		tk.WaitStart()
		for i := 1; i <= 10; i++ {
			tk.SleepUntil(vclock.Time(2*i) * vclock.Microsecond)
		}
	}()
	e.Run()
	wg.Wait()
	st := e.stats
	checkInvariants(t, st)
	if ran != 2 {
		t.Fatalf("callbacks ran %d times, want 2", ran)
	}
	if st.Callbacks != 2 {
		t.Fatalf("stats.Callbacks = %d, want 2", st.Callbacks)
	}
	if st.Kept == 0 {
		t.Fatal("solo sleeper never kept the baton")
	}
	if st.Switches != 1 {
		// Only the start event crosses into the task; every sleep keeps the
		// baton (callbacks run inline without a switch).
		t.Fatalf("stats.Switches = %d, want 1 (start only)", st.Switches)
	}
}

// TestPeakParkedCountsBlockedOnly: ready tasks sitting in the event queue
// must not count as parked. Through PR 4 notePeak approximated parked as
// live-1, so a herd of sleeping (= ready, queued) tasks inflated the
// high-water mark; now only the blocked set counts.
func TestPeakParkedCountsBlockedOnly(t *testing.T) {
	e := New()
	const sleepers = 8
	var wg sync.WaitGroup

	// One parked/woken pair; the peak parked count should be exactly 1
	// (the parked half) plus never any of the sleepers.
	parked := e.NewTask("parked")
	waker := e.NewTask("waker")
	parked.StartAt(0)
	waker.StartAt(vclock.Microsecond)
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer parked.Exit()
		parked.WaitStart()
		parked.Park()
	}()
	go func() {
		defer wg.Done()
		defer waker.Exit()
		waker.WaitStart()
		parked.WakeAt(2 * vclock.Microsecond)
	}()

	// A herd of sleepers that are always ready-in-queue, never blocked.
	for i := 0; i < sleepers; i++ {
		tk := e.NewTask("sleeper")
		tk.StartAt(0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tk.Exit()
			tk.WaitStart()
			for k := 1; k <= 4; k++ {
				tk.SleepUntil(vclock.Time(k) * vclock.Microsecond)
			}
		}()
	}
	e.Run()
	wg.Wait()
	st := e.stats
	checkInvariants(t, st)
	if st.PeakParked != 1 {
		t.Fatalf("peak_parked = %d, want 1: %d ready sleepers are runnable, not parked (stats: %+v)",
			st.PeakParked, sleepers, st)
	}
}

// TestEngineRecycle: a recycled kernel must come back clean and reuse its
// task structs without cross-talk between launches.
func TestEngineRecycle(t *testing.T) {
	run := func(n int) {
		e := New()
		shared := 0
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			tk := e.NewTask("t")
			tk.StartAt(0)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer tk.Exit()
				tk.WaitStart()
				shared++
				tk.SleepUntil(vclock.Microsecond)
				shared++
			}()
		}
		e.Run()
		wg.Wait()
		if shared != 2*n {
			t.Fatalf("shared = %d, want %d", shared, 2*n)
		}
		checkInvariants(t, e.stats)
		if e.stats.Tasks != n {
			t.Fatalf("tasks = %d, want %d (stale count from a previous launch?)", e.stats.Tasks, n)
		}
		e.Recycle()
	}
	// Varying sizes force the pool to grow and shrink its task free list.
	for _, n := range []int{4, 64, 2, 32, 1} {
		run(n)
	}
}
