package engine

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Stats counts what one kernel instance did. The global aggregate across all
// kernels of the process (every launched job of every scenario) is available
// through Global; deepsim -stats and cbctl run -stats print it.
//
// The counters satisfy Events == Switches + Kept + Callbacks on every clean
// run: each processed event either handed the baton to another task, was
// consumed by the task that already held it, or ran a callback.
type Stats struct {
	// Events is the number of events processed (task starts, wakeups,
	// timer completions, callbacks), baton-keeping fast paths included.
	Events uint64
	// Parks counts how often a task yielded the baton in the kernel
	// (blocking parks and sleeps that crossed tasks).
	Parks uint64
	// Switches counts goroutine handoffs (events that moved the baton to a
	// different task).
	Switches uint64
	// Kept counts events consumed by the task already holding the baton
	// (the SleepUntil keep-the-baton fast path): no goroutine switch.
	Kept uint64
	// Callbacks counts callback events (CallAt) executed.
	Callbacks uint64
	// PeakParked is the high-water mark of simultaneously parked tasks
	// (tasks in the blocked set, awaiting a wakeup event).
	PeakParked int
	// Tasks is the number of tasks registered over the kernel's lifetime.
	Tasks int
	// Wall is the host time between Run's dispatch and the last exit.
	Wall time.Duration
}

// EventsPerSec returns the wall-clock event rate.
func (s Stats) EventsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Events) / s.Wall.Seconds()
}

// String renders the stats in the -stats flag format.
func (s Stats) String() string {
	return fmt.Sprintf("events=%d events/sec=%.0f parks=%d switches=%d kept=%d callbacks=%d peak_parked=%d tasks=%d wall=%v",
		s.Events, s.EventsPerSec(), s.Parks, s.Switches, s.Kept, s.Callbacks, s.PeakParked, s.Tasks, s.Wall)
}

// Process-wide aggregate, maintained with atomics: kernels finish on
// whatever sweep worker ran them.
var global struct {
	engines    atomic.Uint64
	events     atomic.Uint64
	parks      atomic.Uint64
	switches   atomic.Uint64
	kept       atomic.Uint64
	callbacks  atomic.Uint64
	tasks      atomic.Uint64
	wallNanos  atomic.Int64
	peakParked atomic.Int64
}

// publishGlobal folds one finished kernel's counters into the aggregate.
func publishGlobal(s Stats) {
	global.engines.Add(1)
	global.events.Add(s.Events)
	global.parks.Add(s.Parks)
	global.switches.Add(s.Switches)
	global.kept.Add(s.Kept)
	global.callbacks.Add(s.Callbacks)
	global.tasks.Add(uint64(s.Tasks))
	global.wallNanos.Add(int64(s.Wall))
	raiseMax(&global.peakParked, int64(s.PeakParked))
}

// raiseMax lifts the atomic to v if v is larger (lock-free high-water mark).
func raiseMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// GlobalStats is the process-wide aggregate over all finished kernels.
type GlobalStats struct {
	Engines uint64
	// Wall is summed kernel-busy time, not elapsed host time.
	Stats
}

// Global snapshots the process-wide aggregate.
func Global() GlobalStats {
	return GlobalStats{
		Engines: global.engines.Load(),
		Stats: Stats{
			Events:     global.events.Load(),
			Parks:      global.parks.Load(),
			Switches:   global.switches.Load(),
			Kept:       global.kept.Load(),
			Callbacks:  global.callbacks.Load(),
			PeakParked: int(global.peakParked.Load()),
			Tasks:      int(global.tasks.Load()),
			Wall:       time.Duration(global.wallNanos.Load()),
		},
	}
}

// String renders the aggregate in the -stats flag format.
func (g GlobalStats) String() string {
	return fmt.Sprintf("engines=%d %s", g.Engines, g.Stats)
}
