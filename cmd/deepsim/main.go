// Command deepsim regenerates the tables and figures of "Application
// performance on a Cluster-Booster system" on the simulated DEEP-ER
// prototype, and runs declarative scenario sweeps over the evaluation space.
// Every table and figure target resolves through the experiment registry
// (internal/exp) — the same catalog cbctl lists, diffs and blesses.
//
// Usage:
//
//	deepsim [flags] table1|table2|fig3|fig7|fig8|fig-resilience|all
//	deepsim -sweep [flags]
//	deepsim -resilience [flags]
//	deepsim -facility [flags]
//
// Flags:
//
//	-quick     run reduced workloads (seconds instead of minutes)
//	-steps N   override the xPic step count
//	-scale K   override the particle fidelity divisor
//	-sweep     run the paper's full evaluation grid through the sweep engine
//	-scr       add the SCR checkpoint-level axis to the sweep
//	-workers N bound the sweep worker pool (0 = GOMAXPROCS)
//	-json      emit canonical JSON (registry documents, or sweep results);
//	           with multiple targets ("all") the output is a stream of
//	           concatenated documents, one per target, not one JSON value
//	-csv       emit sweep results as CSV instead of text
//	-v         print per-scenario progress to stderr
//	-store DIR layer the persistent run store (internal/runstore) under the
//	           scenario cache: successful compute runs are published to DIR
//	           and any process sharing DIR (deepsim or cbctl) reuses them
//	-stats     print execution-kernel runtime stats (events processed,
//	           events/sec wall-clock, peak parked ranks), scenario-cache
//	           hit/miss counters and run-store counters to stderr
//	-cpuprofile F  write a pprof CPU profile of the run to F
//	-memprofile F  write a pprof allocation profile of the run to F
//
// Resilience flags (§III-D live fault injection; use with -resilience):
//
//	-resilience        run one checkpoint/restart scenario under failure
//	                   injection and report the outcome
//	-mtbf S            per-node mean time between failures in *virtual*
//	                   seconds (0 = no failures); CI-scale workloads run
//	                   virtual milliseconds, so think 0.03, not hours
//	-failures N        stop injecting after N failures (default 1)
//	-ckpt N            checkpoint every N completed steps (default 4)
//	-level L           surviving checkpoint level cadence: local, buddy or
//	                   global (default buddy; global needs a mono mode)
//	-mode M            execution mode: cluster, booster or split (default
//	                   booster)
//	-nodes N           ranks per solver (default 2)
//	-seed S            failure-sequence seed (default 1)
//	-restart-overhead S  fixed relaunch cost per restart in virtual seconds
//
// Facility flags (batch system under load on a failing machine; use with
// -facility; -mtbf and -seed are shared with -resilience but here apply
// per *module*, not per node):
//
//	-facility          run one synthetic arrival stream through the batch
//	                   queue and report the facility outcome
//	-policy P          batch discipline: fcfs, backfill or malleable
//	                   (default backfill)
//	-jobs N            arrival-stream length (default 600)
//	-load F            offered load on the bottleneck module (default 1.4:
//	                   sustained overload, the queue grows)
//	-mtbf S            per-module mean time between failures in virtual
//	                   seconds (0 = a failure-free machine)
//	-mttr S            per-module mean time to repair (default 1.5)
//	-retries N         kill/requeue budget per job before the facility
//	                   abandons it (default 16)
//	-ckpt-every S      facility checkpoint interval in virtual seconds
//	                   (0 = cold restarts; cost/restore follow the
//	                   fig-facility-resilience policy: 10ms/20ms)
//
// The figure targets print the measured series next to the paper's reference
// values; EXPERIMENTS.md records a full run and documents the registry. The
// output is deterministic: the same target always produces byte-identical
// JSON, regardless of -workers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"clusterbooster/internal/bench"
	"clusterbooster/internal/engine"
	"clusterbooster/internal/exp"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/prof"
	"clusterbooster/internal/resilience"
	"clusterbooster/internal/runstore"
	"clusterbooster/internal/sched"
	"clusterbooster/internal/sweep"
	"clusterbooster/internal/vclock"
	"clusterbooster/internal/xpic"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced workloads")
	steps := flag.Int("steps", 0, "override xPic step count")
	scale := flag.Int("scale", 0, "override particle fidelity divisor")
	doSweep := flag.Bool("sweep", false, "run the paper's evaluation grid through the sweep engine")
	withSCR := flag.Bool("scr", false, "add the SCR checkpoint-level axis to the sweep")
	doResilience := flag.Bool("resilience", false, "run a checkpoint/restart scenario under failure injection")
	doFacility := flag.Bool("facility", false, "run a synthetic arrival stream through the batch queue on a (possibly failing) machine")
	mtbf := flag.Float64("mtbf", 0, "MTBF in virtual seconds: per node with -resilience, per module with -facility (0 = no failures)")
	maxFailures := flag.Int("failures", 1, "stop injecting after N failures")
	ckptEvery := flag.Int("ckpt", 4, "checkpoint every N completed steps (0 = never)")
	level := flag.String("level", "buddy", "surviving checkpoint level cadence: local, buddy or global")
	modeName := flag.String("mode", "booster", "execution mode: cluster, booster or split")
	nodes := flag.Int("nodes", 2, "ranks per solver")
	seed := flag.Int64("seed", 1, "failure-sequence seed")
	restartOverhead := flag.Float64("restart-overhead", 0.002, "fixed relaunch cost per restart, virtual seconds")
	policy := flag.String("policy", "backfill", "facility batch discipline: fcfs, backfill or malleable")
	jobs := flag.Int("jobs", 600, "facility arrival-stream length")
	load := flag.Float64("load", 1.4, "facility offered load on the bottleneck module")
	mttr := flag.Float64("mttr", 1.5, "per-module mean time to repair, virtual seconds")
	retries := flag.Int("retries", 16, "facility kill/requeue budget per job before abandonment")
	ckptEverySec := flag.Float64("ckpt-every", 0, "facility checkpoint interval, virtual seconds (0 = cold restarts)")
	workers := flag.Int("workers", 0, "sweep worker pool bound (0 = GOMAXPROCS)")
	asJSON := flag.Bool("json", false, "emit canonical JSON instead of text")
	asCSV := flag.Bool("csv", false, "emit sweep results as CSV instead of text")
	verbose := flag.Bool("v", false, "per-scenario progress on stderr")
	storeDir := flag.String("store", "", "persistent run-store directory shared across processes (\"\" = in-process cache only)")
	stats := flag.Bool("stats", false, "print execution-kernel runtime stats to stderr after the run")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof allocation profile of the run to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: deepsim [flags] %s|all\n", strings.Join(artifactNames(), "|"))
		fmt.Fprintf(os.Stderr, "       deepsim -sweep [flags]\n")
		fmt.Fprintf(os.Stderr, "       deepsim -resilience [-mtbf S] [-failures N] [-ckpt N] [-level L] [-mode M] [flags]\n")
		fmt.Fprintf(os.Stderr, "       deepsim -facility [-policy P] [-jobs N] [-load F] [-mtbf S] [-mttr S] [-retries N] [-ckpt-every S] [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *storeDir != "" {
		st, err := runstore.Open(*storeDir, exp.CacheEpoch())
		if err != nil {
			fmt.Fprintf(os.Stderr, "deepsim: %v\n", err)
			os.Exit(2)
		}
		sweep.SetDiskRunStore(st)
	}

	// os.Exit skips defers, so every exit path below goes through exit() to
	// flush the -cpuprofile/-memprofile capture first.
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deepsim: %v\n", err)
		os.Exit(2)
	}
	exit := func(code int) {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "deepsim: %v\n", err)
		}
		os.Exit(code)
	}

	cfg := xpic.Table2Config()
	if *quick {
		cfg.Steps = 60
		cfg.ParticleScale = 512
	}
	if *steps > 0 {
		cfg.Steps = *steps
	}
	if *scale > 0 {
		cfg.ParticleScale = *scale
	}

	opts := exp.Options{Workers: *workers, Workload: &cfg}
	if *verbose {
		opts.Observer = exp.ProgressObserver(os.Stderr, "deepsim")
	}

	if *doSweep {
		if flag.NArg() != 0 || *doResilience || *doFacility {
			flag.Usage()
			exit(2)
		}
		code := runSweep(cfg, *withSCR, opts, *asJSON, *asCSV)
		reportStats(*stats)
		exit(code)
	}

	if *doFacility {
		if flag.NArg() != 0 || *doResilience {
			flag.Usage()
			exit(2)
		}
		code := runFacilityMode(facilityFlags{
			policy: *policy, jobs: *jobs, load: *load, seed: *seed,
			mtbf: *mtbf, mttr: *mttr, retries: *retries, ckptEvery: *ckptEverySec,
		}, *asJSON)
		reportStats(*stats)
		exit(code)
	}

	if *doResilience {
		if flag.NArg() != 0 {
			flag.Usage()
			exit(2)
		}
		code := runResilience(resilienceFlags{
			cfg: cfg, mode: *modeName, level: *level, nodes: *nodes,
			ckptEvery: *ckptEvery, mtbf: *mtbf, failures: *maxFailures,
			seed: *seed, restartOverhead: *restartOverhead,
		}, *asJSON)
		reportStats(*stats)
		exit(code)
	}

	if flag.NArg() != 1 {
		flag.Usage()
		exit(2)
	}
	if *withSCR || *asCSV {
		fmt.Fprintln(os.Stderr, "deepsim: -scr and -csv require -sweep")
		exit(2)
	}

	target := flag.Arg(0)
	var targets []string
	if target == "all" {
		targets = artifactNames()
	} else if _, ok := exp.Get(target); ok && !strings.Contains(target, "/") {
		targets = []string{target}
	} else {
		flag.Usage()
		exit(2)
	}

	for _, name := range targets {
		e, _ := exp.Get(name)
		doc, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "deepsim: %s: %v\n", name, err)
			exit(1)
		}
		if *asJSON {
			b, err := doc.Canonical()
			if err != nil {
				fmt.Fprintf(os.Stderr, "deepsim: %s: %v\n", name, err)
				exit(1)
			}
			os.Stdout.Write(b)
			continue
		}
		text, err := e.Render(doc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "deepsim: %s: %v\n", name, err)
			exit(1)
		}
		fmt.Println(text)
	}
	reportStats(*stats)
	exit(0)
}

// reportStats prints the aggregated execution-kernel counters (events
// processed, events/sec wall-clock, peak parked ranks), the I/O and
// batch-queue counters and the scenario cache counters to stderr.
func reportStats(enabled bool) {
	if !enabled {
		return
	}
	fmt.Fprintf(os.Stderr, "deepsim: kernel %s\n", engine.Global())
	fmt.Fprintf(os.Stderr, "deepsim: io %s\n", ioev.Global())
	fmt.Fprintf(os.Stderr, "deepsim: queue %s\n", sched.Global())
	fmt.Fprintf(os.Stderr, "deepsim: %s\n", sweep.RunCacheStats())
	if st := sweep.DiskRunStore(); st != nil {
		fmt.Fprintf(os.Stderr, "deepsim: run store: %s\n", st.Stats())
	}
}

// artifactNames lists the registry's paper artifacts (the targets of this
// command) in paper order — the sweep entries live under "sweep/" and are
// cbctl's domain.
func artifactNames() []string {
	var out []string
	for _, name := range exp.Names() {
		if !strings.Contains(name, "/") {
			out = append(out, name)
		}
	}
	return out
}

// resilienceFlags bundles the -resilience invocation.
type resilienceFlags struct {
	cfg             xpic.Config
	mode            string
	level           string
	nodes           int
	ckptEvery       int
	mtbf            float64
	failures        int
	seed            int64
	restartOverhead float64
}

// runResilience executes one checkpoint/restart scenario under failure
// injection and reports the outcome.
func runResilience(f resilienceFlags, asJSON bool) int {
	params := resilience.Params{
		Nodes:           f.nodes,
		Workload:        f.cfg,
		CheckpointEvery: f.ckptEvery,
		MTBF:            vclock.Time(f.mtbf),
		Seed:            f.seed,
		MaxFailures:     f.failures,
		RestartOverhead: vclock.Time(f.restartOverhead),
	}
	switch f.mode {
	case "cluster":
		params.Mode = xpic.ClusterOnly
	case "booster":
		params.Mode = xpic.BoosterOnly
	case "split":
		params.Mode = xpic.SplitCB
	default:
		fmt.Fprintf(os.Stderr, "deepsim: unknown mode %q (cluster, booster, split)\n", f.mode)
		return 2
	}
	switch f.level {
	case "local":
	case "buddy":
		params.SCR.BuddyEvery = 1
	case "global":
		params.SCR.GlobalEvery = 1
	default:
		fmt.Fprintf(os.Stderr, "deepsim: unknown level %q (local, buddy, global)\n", f.level)
		return 2
	}
	out, err := resilience.Run(params)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deepsim: resilience: %v\n", err)
		return 1
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "deepsim: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Printf("resilience %s/%s: %s\n", f.mode, f.level, out.Report)
	fmt.Printf("  failures=%d checkpoints=%d (cost %v) lost_work=%v restore=%v overhead=%v\n",
		out.Failures, out.Checkpoints, out.CheckpointTime, out.LostWork, out.RestoreTime, out.RestartOverheadTotal)
	for i, r := range out.Restarts {
		kind := fmt.Sprintf("rewind to step %d via %v", r.FromStep, r.Levels)
		if r.Cold {
			kind = "cold restart from step 0"
		}
		fmt.Printf("  restart %d: %s failed at %v — %s (lost %v)\n",
			i+1, r.FailedNode, r.At, kind, r.LostWork)
	}
	return 0
}

// facilityFlags bundles the -facility invocation.
type facilityFlags struct {
	policy    string
	jobs      int
	load      float64
	seed      int64
	mtbf      float64
	mttr      float64
	retries   int
	ckptEvery float64
}

// runFacilityMode schedules one synthetic arrival stream through the batch
// queue — on a failing machine when -mtbf is set — and reports the facility
// outcome next to the analytic steady-state availability MTBF/(MTBF+MTTR).
func runFacilityMode(f facilityFlags, asJSON bool) int {
	params := sched.FacilityParams{
		Policy: sched.FacilityPolicy(f.policy),
		Jobs:   f.jobs,
		Load:   f.load,
		Seed:   f.seed,
	}
	if f.mtbf > 0 {
		faults := &sched.FacilityFaults{
			Cluster:    machine.FailureProfile{MTBF: vclock.Time(f.mtbf), MTTR: vclock.Time(f.mttr)},
			Booster:    machine.FailureProfile{MTBF: vclock.Time(f.mtbf), MTTR: vclock.Time(f.mttr)},
			Seed:       f.seed,
			MaxRetries: f.retries,
		}
		if f.ckptEvery > 0 {
			// The fig-facility-resilience checkpoint policy at the chosen
			// interval: write cost 10ms, restore 20ms.
			faults.Rewind = resilience.FacilityCheckpoint{
				Every:   vclock.Time(f.ckptEvery),
				Cost:    10 * vclock.Millisecond,
				Restore: 20 * vclock.Millisecond,
			}
		}
		params.Faults = faults
	}
	out, err := sched.RunFacility(params)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deepsim: facility: %v\n", err)
		return 2
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "deepsim: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Printf("facility %s: %d jobs at load %.2f (seed %d)\n", f.policy, f.jobs, f.load, f.seed)
	fmt.Printf("  completed=%d abandoned=%d makespan=%v mean_wait=%v slowdown mean=%.2f p95=%.2f\n",
		out.Jobs, out.Abandoned, out.Makespan, out.MeanWait, out.MeanSlowdown, out.P95Slowdown)
	fmt.Printf("  util cluster=%.3f booster=%.3f backfilled=%d shrunk=%d peak_queue=%d\n",
		out.UtilCluster, out.UtilBooster, out.Backfilled, out.Shrunk, out.PeakQueue)
	if params.Faults == nil {
		return 0
	}
	analytic := params.Faults.Cluster.Availability()
	fmt.Printf("  failures=%d repairs=%d requeues=%d lost_node_s=%.3f goodput=%.3f horizon=%v\n",
		out.Failures, out.Repairs, out.Requeues, out.LostNodeSec, out.Goodput, out.Horizon)
	fmt.Printf("  availability cluster=%.4f booster=%.4f (analytic MTBF/(MTBF+MTTR)=%.4f)\n",
		out.AvailCluster, out.AvailBooster, analytic)
	fmt.Printf("  saturated window: util cluster=%.3f booster=%.3f avail cluster=%.4f booster=%.4f\n",
		out.SatUtilCluster, out.SatUtilBooster, out.SatAvailCluster, out.SatAvailBooster)
	return 0
}

// runSweep expands the paper grid and executes it on the worker pool.
func runSweep(cfg xpic.Config, withSCR bool, opts exp.Options, asJSON, asCSV bool) int {
	grid := bench.PaperGrid(cfg, withSCR)
	scenarios, err := grid.Scenarios()
	if err != nil {
		fmt.Fprintf(os.Stderr, "deepsim: %v\n", err)
		return 1
	}
	rs := sweep.Run(scenarios, sweep.Options{Workers: opts.Workers, Observer: opts.Observer})
	switch {
	case asJSON:
		if err := rs.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "deepsim: %v\n", err)
			return 1
		}
	case asCSV:
		if err := rs.WriteCSV(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "deepsim: %v\n", err)
			return 1
		}
	default:
		fmt.Print(rs.RenderText())
	}
	if rs.Failures > 0 {
		return 1
	}
	return 0
}
