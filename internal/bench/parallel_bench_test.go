package bench

// Benchmarks of the conservative parallel kernel against its serial
// baseline, on the workloads the -kworkers mode was built for: the
// fig8-scale strong-scaling points (thousands of ranks per kernel) and the
// facility arrival streams. The serial/par4 pairs back the "speedups"
// section of BENCH_kernel.json — `cbctl bench -check` requires the recorded
// ratio on hosts with enough cores (results are bit-identical either way;
// only wall-clock may differ).

import (
	"testing"

	"clusterbooster/internal/core"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/psmpi"
	"clusterbooster/internal/resilience"
	"clusterbooster/internal/sched"
	"clusterbooster/internal/vclock"
	"clusterbooster/internal/xpic"
)

// benchScaleConfig is the fig8-scale workload (exp.ScaleProfile, restated
// here because internal/exp imports this package): 2048 rows decompose to
// the 2-rows-per-rank floor at n = 1024.
func benchScaleConfig() xpic.Config {
	return xpic.Config{
		NX:                  8,
		NY:                  2048,
		PPC:                 8,
		Species:             xpic.DefaultSpecies(),
		Steps:               8,
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

// benchScale4096Config is the fig8-scale4096 workload (exp.Scale4096Profile
// restated): 8192 rows, trimmed steps, floor at n = 4096.
func benchScale4096Config() xpic.Config {
	cfg := benchScaleConfig()
	cfg.NY = 8192
	cfg.Steps = 4
	cfg.CGMaxIter = 8
	cfg.DiagEvery = 2
	return cfg
}

// benchScalePoint runs the Booster-only strong-scaling point at n ranks end
// to end, with the requested kernel worker count, b.N times.
func benchScalePoint(b *testing.B, n, kworkers int, cfg xpic.Config) {
	prev := psmpi.DefaultKernelWorkers()
	psmpi.SetDefaultKernelWorkers(kworkers)
	defer psmpi.SetDefaultKernelWorkers(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := core.New(n, n, core.Options{WithoutStorage: true})
		if _, err := sys.RunXPic(xpic.BoosterOnly, n, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelFig8Scale runs the n=1024 fig8-scale Booster point serial
// and on 4 kernel workers.
func BenchmarkKernelFig8Scale(b *testing.B) {
	cfg := benchScaleConfig()
	b.Run("serial", func(b *testing.B) { benchScalePoint(b, 1024, 1, cfg) })
	b.Run("par4", func(b *testing.B) { benchScalePoint(b, 1024, 4, cfg) })
}

// BenchmarkKernelFig8Scale4096 runs the n=4096 fig8-scale4096 Booster point
// serial and on 4 kernel workers — the speedup-gated pair: on a >=4-core
// host par4 must beat serial by the ratio recorded in BENCH_kernel.json.
func BenchmarkKernelFig8Scale4096(b *testing.B) {
	cfg := benchScale4096Config()
	b.Run("serial", func(b *testing.B) { benchScalePoint(b, 4096, 1, cfg) })
	b.Run("par4", func(b *testing.B) { benchScalePoint(b, 4096, 4, cfg) })
}

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
// A run is one or two iterations long, too short to amortise a miss in the
// kernel pool: a fresh engine allocates its 10k tasks again, a third more
// allocations. Each run therefore warms the pool on its own goroutine first.
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
