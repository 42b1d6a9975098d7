package main

import (
	"math/rand/v2"
	"strings"
)

// workload is one set of experiments a sample runs, in one fresh process.
// The four workloads partition the experiment registry, so the correctness
// check of a full benchmark run covers every golden.
type workload struct {
	Name string
	// Why records the layer the workload stresses; it is also the "why" of
	// BENCHMARK.json.
	Why         string
	Experiments []string
}

var workloads = []workload{
	{
		Name:        "scale",
		Why:         "kernel-bound: 5M events and up to 32k parked rank goroutines, where the engine baton, vclock and psmpi dominate",
		Experiments: []string{"fig8-scale", "fig8-scale4096", "fig8-scale16384", "sweep/xpic-weak"},
	},
	{
		Name:        "paper",
		Why:         "the paper's own artifacts: xpic physics takes about 80% of CPU, and sweep re-requests hit the scenario cache",
		Experiments: []string{"table1", "table2", "fig3", "fig7", "fig8", "sweep/fig3", "sweep/fig7", "sweep/fig8", "sweep/paper"},
	},
	{
		Name:        "facility",
		Why:         "sched-bound: 75k job tasks and a callback-heavy engine, the kernel used differently from scale",
		Experiments: []string{"fig-facility", "facility-10k", "fig-facility-resilience"},
	},
	{
		Name:        "io",
		Why:         "the DEEP-ER I/O and checkpoint stack: beegfs and sion moving real buffers, the widest memory swing",
		Experiments: []string{"fig-io", "fig-resilience"},
	},
}

// order draws a sample's experiment order. The seed shuffles the artifacts
// among themselves and the raw sweeps among themselves; the sweeps still
// follow the artifacts, as in the registry, so their re-requests always hit
// the scenario cache. A sweep run first computes the shared scenarios
// itself, and sweep/paper's checkpoint axis then parks one worker on the
// other's cache entry: paper's pass took 2.6-3.0 s with sweep/paper first
// against 1.3-1.6 s in registry order, which would make the seed, not the
// code, set the median.
func (w workload) order(rng *rand.Rand) []string {
	var artifacts, sweeps []string
	for _, e := range w.Experiments {
		if strings.HasPrefix(e, "sweep/") {
			sweeps = append(sweeps, e)
		} else {
			artifacts = append(artifacts, e)
		}
	}
	for _, g := range [][]string{artifacts, sweeps} {
		rng.Shuffle(len(g), func(a, b int) { g[a], g[b] = g[b], g[a] })
	}
	return append(artifacts, sweeps...)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one named number the benchmark reports. The tables below are
// the single definition; BENCHMARK.json must list the same names, units,
// directions and bounds (TestBenchmarkJSONMatchesTables).
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Exact marks a deterministic count: two runs of the same code must
	// report the same value, and -compare compares it exactly.
	Exact bool
}

// endToEnd is what a user of the simulator sees, measured on untraced
// samples.
//
// The bounds are the widest allowed, 25%: over ten runs on a shared 2-vCPU
// host, the run-to-run spread (Q3-Q1 over the median) reached 12% for
// wall_s on scale, whose run is one 20 s sample, and 10% for peak_rss_mb
// on paper (README.md).
var endToEnd = []metric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is reported by traced runs: counter deltas, span metrics, and
// cpu metrics from the folded CPU profile. The cpu buckets listed are the
// ones every workload fills; a bucket that is zero by construction on some
// workload (sched on scale, xpic on facility) would read the same on every
// run there. Every module's bucket is in the suite's results and beside
// the trace (<workload>.layers.json).
var perLayer = []metric{
	{Name: "engine.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.switches", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.callbacks", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.tasks", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.peak_parked", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.busy_s", Unit: "s", Better: "lower"},
	{Name: "engine.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sweep.scenarios", Unit: "count", Better: "lower", Exact: true},
	{Name: "sweep.cache_hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "sweep.cache_misses", Unit: "count", Better: "lower", Exact: true},
	{Name: "sched.jobs", Unit: "count", Better: "lower", Exact: true},
	{Name: "sched.started", Unit: "count", Better: "lower", Exact: true},
	{Name: "sched.backfilled", Unit: "count", Better: "higher", Exact: true},
	{Name: "sched.requeues", Unit: "count", Better: "lower", Exact: true},
	{Name: "ioev.container_mb", Unit: "MiB", Better: "lower", Exact: true},
	{Name: "ioev.cache_flushes", Unit: "count", Better: "lower", Exact: true},
	{Name: "ioev.buddy_copies", Unit: "count", Better: "lower", Exact: true},
	{Name: "go.alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_s", Unit: "s", Better: "lower"},
	{Name: "go.cpu_s", Unit: "s", Better: "lower"},
	{Name: "sweep.scenario_s", Unit: "s", Better: "lower"},
	{Name: "sweep.idle_s", Unit: "s", Better: "lower"},
	{Name: "exp.self_s", Unit: "s", Better: "lower"},
	{Name: "exp.canonical_s", Unit: "s", Better: "lower"},
	{Name: "exp.diff_s", Unit: "s", Better: "lower"},
	{Name: "exp.doc_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "engine.cpu_s", Unit: "s", Better: "lower"},
	{Name: "engine.runtime_cpu_s", Unit: "s", Better: "lower"},
	{Name: "vclock.cpu_s", Unit: "s", Better: "lower"},
	{Name: "go.gc_cpu_s", Unit: "s", Better: "lower"},
	{Name: "go.other_cpu_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
	// The median calibration loop of the run: how fast the host was.
	{Name: "host.calib_s", Unit: "s", Better: "lower"},
}

// allMetrics is every metric of the tables, end-to-end first.
var allMetrics = append(append([]metric(nil), endToEnd...), perLayer...)
