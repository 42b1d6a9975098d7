package exp

// End-to-end benchmarks of the largest workloads one kernel runs: the
// fig8-scale strong-scaling points (thousands of ranks per kernel) and the
// facility arrival streams.

import (
	"testing"

	"clusterbooster/internal/core"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/resilience"
	"clusterbooster/internal/sched"
	"clusterbooster/internal/vclock"
	"clusterbooster/internal/xpic"
)

// benchScalePoint runs the Booster-only strong-scaling point at n ranks end
// to end, b.N times.
func benchScalePoint(b *testing.B, n int, cfg xpic.Config) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := core.New(n, n, core.Options{WithoutStorage: true})
		if _, err := sys.RunXPic(xpic.BoosterOnly, n, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelFig8Scale runs the n=1024 fig8-scale Booster point.
func BenchmarkKernelFig8Scale(b *testing.B) { benchScalePoint(b, 1024, scaleProfile()) }

// BenchmarkKernelFig8Scale4096 runs the n=4096 fig8-scale4096 Booster point.
func BenchmarkKernelFig8Scale4096(b *testing.B) { benchScalePoint(b, 4096, scale4096Profile()) }

// BenchmarkKernelFacilityFailures is BenchmarkKernelFacility on a failing
// machine: the same 1000-job backfill stream under the harsh mtbf12-style
// per-module failure/repair processes with checkpointed rewinds — the fault
// path's kill/requeue/repair machinery on top of the scheduler hot path.
func BenchmarkKernelFacilityFailures(b *testing.B) {
	p := sched.FacilityParams{
		Policy: sched.FacilityBackfill,
		Jobs:   1000,
		Load:   1.4,
		Seed:   20180521 + 140,
		Faults: &sched.FacilityFaults{
			Cluster:    machine.FailureProfile{MTBF: 20, MTTR: 1.5},
			Booster:    machine.FailureProfile{MTBF: 12, MTTR: 1.5},
			Seed:       20180711,
			MaxRetries: 16,
			Rewind: resilience.FacilityCheckpoint{
				Every:   250 * vclock.Millisecond,
				Cost:    10 * vclock.Millisecond,
				Restore: 20 * vclock.Millisecond,
			},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.RunFacility(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelFacility feeds the overload-regime 1000-job backfill
// stream (the fig-facility load=1.4 grid point) through one kernel per
// iteration — the batch-scheduler hot path.
func BenchmarkKernelFacility(b *testing.B) {
	p := sched.FacilityParams{
		Policy: sched.FacilityBackfill,
		Jobs:   1000,
		Load:   1.4,
		Seed:   20180521 + 140,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.RunFacility(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelFacilityDeep is BenchmarkKernelFacility at ten times the
// stream length — the facility-10k overload point. The queue runs hundreds
// of jobs deep, so every dispatch's backfill scan over the pending jobs
// dominates, the cost the 1000-job stream only hints at.
//
// A run is one or two iterations long, so each run first does one untimed
// pass on its own goroutine: the kernel pool and the event queue's capacity
// are then warm when the timer starts.
func BenchmarkKernelFacilityDeep(b *testing.B) {
	p := sched.FacilityParams{
		Policy: sched.FacilityBackfill,
		Jobs:   10000,
		Load:   1.4,
		Seed:   20180521 + 140,
	}
	if _, err := sched.RunFacility(p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.RunFacility(p); err != nil {
			b.Fatal(err)
		}
	}
}
