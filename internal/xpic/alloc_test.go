package xpic

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
)

// allocConfig is a workload like fig8-scale's (a tall, narrow grid at a few
// particles per cell) that decomposes into 16 slabs of 16 rows.
func allocConfig(steps int) Config {
	return Config{
		NX: 8, NY: 256, PPC: 8,
		Species:             DefaultSpecies(),
		Steps:               steps,
		Dt:                  1.0,
		Theta:               0.5,
		CGTol:               1e-10,
		CGMaxIter:           12,
		DiagEvery:           4,
		DensityPerturbation: 0.30,
		ParticleScale:       4,
		Seed:                20180521,
	}
}

// allocs counts the heap objects a run allocates: those made by the fabric
// links' occupancy history (vclock.SharedClock) and all others.
type allocs struct{ linkHistory, other int64 }

// runAllocs returns the heap objects one 16-rank-per-solver run of mode
// allocates. A first, unmeasured run warms what outlives a run (goroutine
// descriptors, runtime caches); the collections before the measured run
// empty the sync.Pools, which every measured run then refills alike.
func runAllocs(t *testing.T, mode Mode, steps int) allocs {
	t.Helper()
	const ranks = 16
	run := func() {
		rt, sys := newRuntime(ranks, ranks)
		var err error
		if mode == SplitCB {
			_, err = RunSplit(rt, boosterNodes(sys, ranks), ranks, allocConfig(steps))
		} else {
			_, err = RunMono(rt, boosterNodes(sys, ranks), allocConfig(steps))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	run()
	before := allocsSoFar()
	run()
	after := allocsSoFar()
	return allocs{after.linkHistory - before.linkHistory, after.other - before.other}
}

// allocsSoFar counts the heap objects allocated so far, less those made by
// this count itself.
func allocsSoFar() allocs {
	runtime.GC()
	runtime.GC() // the profile may lag by up to two cycles
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	var a allocs
	for _, r := range recs[:n] {
		switch madeBy(r.Stack()) {
		case "link":
			a.linkHistory += r.AllocObjects
		case "":
			a.other += r.AllocObjects
		}
	}
	return a
}

// madeBy classifies an allocation's stack: "link" under a SharedClock
// method, "count" under allocsSoFar, and "" otherwise.
func madeBy(stk []uintptr) string {
	frames := runtime.CallersFrames(stk)
	for {
		f, more := frames.Next()
		switch {
		case strings.HasPrefix(f.Function, "clusterbooster/internal/vclock.(*SharedClock)"):
			return "link"
		case f.Function == "clusterbooster/internal/xpic.allocsSoFar":
			return "count"
		}
		if !more {
			return ""
		}
	}
}

// TestSteadyStateStepAllocatesOnlyLinkHistory runs each mode at 8 and at
// 16 steps. Outside the fabric links' occupancy history, the 8 extra steps
// must allocate no heap object on any rank: every per-step buffer (halo
// rows, moment halos, migration records, interface buffers, collective
// blocks, requests, envelopes) comes from a pool. A link keeps every busy
// interval until its network is dropped, so its history grows with the
// messages sent and reallocates as it doubles; until that history is
// pruned, its objects are held to the counts measured with eager messages
// booking no ejection link.
func TestSteadyStateStepAllocatesOnlyLinkHistory(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops items at random")
	}
	// Record every allocation. Keep the per-P caches of the runtime and of
	// sync.Pool from making the counts depend on host scheduling, and let
	// collections happen only between runs, where they hit both step counts
	// alike.
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		mode      Mode
		rankSteps int   // ranks × the 8 extra steps
		maxLink   int64 // link-history objects of the 8 extra steps
	}{{BoosterOnly, 16 * 8, 24}, {SplitCB, 32 * 8, 68}} {
		runAllocs(t, tc.mode, 16) // settle the runtime's caches after the switch to one P
		short := runAllocs(t, tc.mode, 8)
		long := runAllocs(t, tc.mode, 16)
		if extra := long.other - short.other; extra != 0 {
			t.Errorf("%v: 8 extra steps allocated %d objects outside link history (%.1f per rank-step)",
				tc.mode, extra, float64(extra)/float64(tc.rankSteps))
		}
		if extra := long.linkHistory - short.linkHistory; extra > tc.maxLink {
			t.Errorf("%v: 8 extra steps allocated %d link-history objects, more than %d",
				tc.mode, extra, tc.maxLink)
		}
	}
}
