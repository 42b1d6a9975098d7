// Command cbctl drives the experiment registry: it lists the catalog, runs
// experiments to canonical JSON, diffs fresh runs against the checked-in
// golden baselines, and re-records (blesses) baselines after an intentional
// model change.
//
// Usage:
//
//	cbctl list [-v]
//	cbctl run   [-workers N] [-store DIR] [-v] [-text] [-ndjson] [-stats] [-cpuprofile F] [-memprofile F] -all | <experiment> ...
//	cbctl diff  [-workers N] [-store DIR] [-v] [-stats] [-tolerance] [-C dir] -all | <experiment> ...
//	cbctl bless [-workers N] [-store DIR] [-v] [-stats] [-C dir] -all | <experiment> ...
//	cbctl bench [-in FILE] [-check] [-update] [-max-regress F] [-C dir]
//	cbctl serve [-addr HOST:PORT] [-workers N] [-store DIR] [-v]
//
// run prints one canonical JSON document per selected experiment; with
// several experiments the output is a concatenated stream of documents (use
// a streaming decoder, or select one experiment for a single JSON value).
// -ndjson switches to one compact document per line — byte-identical to the
// serve stream, which the CI serve smoke job relies on. -stats adds the
// execution-kernel counters, the scenario-cache hit/miss counters and (with
// -store) the persistent-store counters on stderr; -cpuprofile/-memprofile
// capture pprof profiles of the runs for perf work.
//
// -store DIR layers the persistent, shared result store (internal/runstore)
// under the in-process scenario cache: successful compute runs are published
// to DIR under the current cache epoch (exp.CacheEpoch — registry versions
// plus the model fingerprint) and later processes start warm. Results are
// byte-identical with the store disabled, cold, warm, or shared between
// processes; the CI cold/warm diff legs hold that line.
//
// serve turns the catalog into a long-running HTTP service: experiment
// requests stream canonical documents as NDJSON, concurrent requests for
// overlapping grids dedupe in-flight compute through the scenario cache's
// singleflight entries, and /statsz exposes the runtime counters. See
// serve.go for the endpoints.
//
// bench maintains BENCH_kernel.json, the checked-in machine-readable
// baseline of the kernel benchmarks: it parses `go test -bench -benchmem`
// output from stdin (or -in), prints the canonical JSON form, records it
// (-update), or gates a fresh run against the baseline (-check fails on
// regressions beyond -max-regress; the CI bench-regression job runs it).
//
// diff exits non-zero when any experiment drifts from its golden, misses a
// baseline, or violates a declared virtual-time perf budget — the `golden`
// CI job runs `cbctl diff -all` so paper-artifact drift fails the build.
// Goldens are embedded into the binary; when the source tree is reachable
// (cwd inside the module, or -C), the on-disk copy under
// internal/exp/testdata/ takes precedence, so bless→diff needs no rebuild.
//
// By default diff is byte-for-byte: the simulation platform is deterministic
// in virtual time, so canonical documents must match exactly. -tolerance
// relaxes numeric leaves by each experiment's declared per-metric relative
// tolerances (for comparing across intentional model refinements before a
// bless).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"clusterbooster/internal/benchdata"
	"clusterbooster/internal/engine"
	"clusterbooster/internal/exp"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/prof"
	"clusterbooster/internal/runstore"
	"clusterbooster/internal/sched"
	"clusterbooster/internal/sweep"
)

func main() {
	flag.Usage = func() { usage(os.Stderr) }
	flag.Parse()
	os.Exit(dispatch(flag.Args(), os.Stdout, os.Stderr))
}

// dispatch routes a verb invocation; the writers make every verb — output,
// exit code and all — table-testable without touching the process streams.
func dispatch(args []string, out, errw io.Writer) int {
	if len(args) < 1 {
		usage(errw)
		return 2
	}
	verb, args := args[0], args[1:]
	switch verb {
	case "list":
		return runList(args, out, errw)
	case "run":
		return runRun(args, out, errw)
	case "diff":
		return runDiff(args, out, errw)
	case "bless":
		return runBless(args, out, errw)
	case "bench":
		return runBench(args, out, errw)
	case "serve":
		return runServe(args, out, errw)
	case "help", "-h", "-help", "--help":
		usage(errw)
		return 0
	default:
		fmt.Fprintf(errw, "cbctl: unknown verb %q\n", verb)
		usage(errw)
		return 2
	}
}

func usage(errw io.Writer) {
	fmt.Fprintf(errw, `usage:
  cbctl list [-v]
  cbctl run   [-workers N] [-store DIR] [-v] [-text] [-ndjson] [-stats] [-cpuprofile F] [-memprofile F] -all | <experiment> ...
  cbctl diff  [-workers N] [-store DIR] [-v] [-stats] [-tolerance] [-C dir] -all | <experiment> ...
  cbctl bless [-workers N] [-store DIR] [-v] [-stats] [-C dir] -all | <experiment> ...
  cbctl bench [-in FILE] [-check] [-update] [-max-regress F] [-C dir]
  cbctl serve [-addr HOST:PORT] [-workers N] [-store DIR] [-v]

Experiments are the registered paper artifacts and sweeps (see 'cbctl list'
and EXPERIMENTS.md). diff exits non-zero on golden drift, missing baselines,
or virtual-time budget violations. -store DIR shares compute results across
processes through an on-disk, epoch-scoped store (results are byte-identical
with the store disabled, cold or warm).

bench parses 'go test -bench -benchmem' output (stdin, or -in FILE) into the
canonical baseline JSON: -update records it as BENCH_kernel.json at the
module root, -check compares against the recorded baseline and exits
non-zero on any benchmark slower than -max-regress (default 0.25 = +25%%)
or allocating beyond it.

serve runs the catalog as an HTTP service: GET /v1/run?exp=NAME streams
canonical documents as NDJSON (one compact document per line, the same bytes
as 'cbctl run -ndjson'), GET /v1/experiments lists the catalog, /statsz the
runtime counters, /healthz liveness.
`)
}

// common per-verb flags.
type verbFlags struct {
	fs         *flag.FlagSet
	all        *bool
	workers    *int
	store      *string
	verbose    *bool
	stats      *bool
	tolerance  *bool
	chdir      *string
	text       *bool
	ndjson     *bool
	cpuprofile *string
	memprofile *string
}

// parse runs the flag set; ok=false stops the verb with the given exit
// code — 0 for an explicit -h/--help (matching flag.ExitOnError's exit
// status), 2 for a genuine usage error.
func (v verbFlags) parse(args []string) (code int, ok bool) {
	switch err := v.fs.Parse(args); {
	case err == nil:
		return 0, true
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	default:
		return 2, false
	}
}

func newFlags(verb string, errw io.Writer, withTolerance, withRoot, withText bool) verbFlags {
	fs := flag.NewFlagSet("cbctl "+verb, flag.ContinueOnError)
	fs.SetOutput(errw)
	v := verbFlags{
		fs:      fs,
		all:     fs.Bool("all", false, "select every registered experiment"),
		workers: fs.Int("workers", 0, "sweep worker pool bound (0 = GOMAXPROCS)"),
		store:   fs.String("store", "", "persistent run-store directory shared across processes (\"\" = in-process cache only); results are byte-identical either way"),
		verbose: fs.Bool("v", false, "per-scenario progress on stderr"),
		stats:   fs.Bool("stats", false, "print execution-kernel, scenario-cache and run-store stats to stderr after the runs"),
	}
	if withTolerance {
		v.tolerance = fs.Bool("tolerance", false, "apply per-experiment relative tolerances to numeric drift")
	}
	if withRoot {
		v.chdir = fs.String("C", "", "module root for on-disk goldens (default: walk up from cwd)")
	}
	if withText {
		v.text = fs.Bool("text", false, "render paper-style text instead of canonical JSON")
		v.ndjson = fs.Bool("ndjson", false, "emit one compact JSON document per line (the cbctl serve stream format)")
		v.cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the runs to this file")
		v.memprofile = fs.String("memprofile", "", "write a pprof allocation profile of the runs to this file")
	}
	return v
}

// openStore connects the persistent run store when -store is set; reports
// whether the verb can proceed.
func (v verbFlags) openStore(errw io.Writer) bool {
	if v.store == nil || *v.store == "" {
		return true
	}
	st, err := runstore.Open(*v.store, exp.CacheEpoch())
	if err != nil {
		fmt.Fprintf(errw, "cbctl: %v\n", err)
		return false
	}
	sweep.SetDiskRunStore(st)
	return true
}

// reportStats prints the aggregated execution-kernel counters, the I/O
// stack's event counters, the batch-queue counters, the scenario-cache
// hit/miss counters and (when a -store is connected) the persistent-store
// counters to stderr when the verb's -stats flag is set.
func (v verbFlags) reportStats(errw io.Writer) {
	if v.stats != nil && *v.stats {
		fmt.Fprintf(errw, "cbctl: kernel %s\n", engine.Global())
		fmt.Fprintf(errw, "cbctl: io %s\n", ioev.Global())
		fmt.Fprintf(errw, "cbctl: queue %s\n", sched.Global())
		fmt.Fprintf(errw, "cbctl: %s\n", sweep.RunCacheStats())
		if st := sweep.DiskRunStore(); st != nil {
			fmt.Fprintf(errw, "cbctl: run store: %s\n", st.Stats())
		}
	}
}

// startProfiles arms -cpuprofile/-memprofile capture; the returned stop
// function is safe to call unconditionally.
func (v verbFlags) startProfiles(errw io.Writer) (func(), bool) {
	cpu, mem := "", ""
	if v.cpuprofile != nil {
		cpu = *v.cpuprofile
	}
	if v.memprofile != nil {
		mem = *v.memprofile
	}
	stop, err := prof.Start(cpu, mem)
	if err != nil {
		fmt.Fprintf(errw, "cbctl: %v\n", err)
		return func() {}, false
	}
	return func() {
		if err := stop(); err != nil {
			fmt.Fprintf(errw, "cbctl: %v\n", err)
		}
	}, true
}

// select resolves the experiment selection from -all / positional names.
func (v verbFlags) selectExps() ([]exp.Experiment, error) {
	if *v.all {
		if v.fs.NArg() != 0 {
			return nil, fmt.Errorf("-all and explicit names are mutually exclusive")
		}
		return exp.All(), nil
	}
	if v.fs.NArg() == 0 {
		return nil, fmt.Errorf("no experiments selected (name them or pass -all)")
	}
	return exp.Resolve(v.fs.Args())
}

func (v verbFlags) options(errw io.Writer) exp.Options {
	o := exp.Options{Workers: *v.workers}
	if *v.verbose {
		o.Observer = exp.ProgressObserver(errw)
	}
	return o
}

// moduleRoot resolves the source tree for on-disk goldens ("" = embedded
// only).
func (v verbFlags) moduleRoot() string {
	if v.chdir != nil && *v.chdir != "" {
		return *v.chdir
	}
	return exp.FindModuleRoot(".")
}

func runList(args []string, out, errw io.Writer) int {
	v := newFlags("list", errw, false, true, false)
	if code, ok := v.parse(args); !ok {
		return code
	}
	if *v.all || v.fs.NArg() != 0 {
		fmt.Fprintln(errw, "cbctl: list takes no experiment arguments")
		return 2
	}
	root := v.moduleRoot()
	nameW, gridW := len("EXPERIMENT"), len("GRID")
	for _, e := range exp.All() {
		nameW = max(nameW, len(e.Name))
		gridW = max(gridW, len(e.Grid))
	}
	fmt.Fprintf(out, "%-*s  %3s  %-8s  %-6s  %7s  %s\n", nameW, "EXPERIMENT", "VER", "PROFILE", "GOLDEN", "BUDGETS", "TITLE")
	for _, e := range exp.All() {
		golden := "yes"
		if !exp.HasGolden(e.Name, root) {
			golden = "NO"
		}
		fmt.Fprintf(out, "%-*s  %3d  %-8s  %-6s  %7d  %s\n",
			nameW, e.Name, e.Version, e.Profile, golden, len(e.Budgets), e.Title)
		if *v.verbose {
			fmt.Fprintf(out, "%-*s       grid: %s\n", nameW, "", e.Grid)
			for _, b := range e.Budgets {
				fmt.Fprintf(out, "%-*s       budget: %s %s %g\n", nameW, "", b.Measure, b.Kind, b.Bound)
			}
		}
	}
	return 0
}

func runRun(args []string, out, errw io.Writer) int {
	v := newFlags("run", errw, false, false, true)
	if code, ok := v.parse(args); !ok {
		return code
	}
	exps, err := v.selectExps()
	if err != nil {
		fmt.Fprintf(errw, "cbctl: %v\n", err)
		return 2
	}
	if *v.text && *v.ndjson {
		fmt.Fprintln(errw, "cbctl: -text and -ndjson are mutually exclusive")
		return 2
	}
	if !v.openStore(errw) {
		return 2
	}
	stopProf, ok := v.startProfiles(errw)
	if !ok {
		return 2
	}
	defer stopProf()
	opts := v.options(errw)
	for _, e := range exps {
		doc, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(errw, "cbctl: run %s: %v\n", e.Name, err)
			return 1
		}
		if *v.ndjson {
			line, err := doc.NDJSON()
			if err != nil {
				fmt.Fprintf(errw, "cbctl: %v\n", err)
				return 1
			}
			out.Write(line)
			continue
		}
		if *v.text && e.Render != nil {
			text, err := e.Render(doc)
			if err != nil {
				fmt.Fprintf(errw, "cbctl: render %s: %v\n", e.Name, err)
				return 1
			}
			fmt.Fprintln(out, text)
			continue
		}
		b, err := doc.Canonical()
		if err != nil {
			fmt.Fprintf(errw, "cbctl: %v\n", err)
			return 1
		}
		out.Write(b)
	}
	v.reportStats(errw)
	return 0
}

func runDiff(args []string, out, errw io.Writer) int {
	v := newFlags("diff", errw, true, true, false)
	if code, ok := v.parse(args); !ok {
		return code
	}
	exps, err := v.selectExps()
	if err != nil {
		fmt.Fprintf(errw, "cbctl: %v\n", err)
		return 2
	}
	if !v.openStore(errw) {
		return 2
	}
	opts := v.options(errw)
	root := v.moduleRoot()
	failed := 0
	for _, e := range exps {
		golden, source, err := exp.Golden(e.Name, root)
		if err != nil {
			fmt.Fprintf(out, "FAIL %-12s missing golden (%s) — bless it first\n", e.Name, exp.GoldenPath(e.Name))
			failed++
			continue
		}
		doc, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(out, "FAIL %-12s run error: %v\n", e.Name, err)
			failed++
			continue
		}
		fresh, err := doc.Canonical()
		if err != nil {
			fmt.Fprintf(out, "FAIL %-12s %v\n", e.Name, err)
			failed++
			continue
		}
		rep, err := exp.Diff(e, golden, fresh, v.tolerance != nil && *v.tolerance)
		if err != nil {
			fmt.Fprintf(out, "FAIL %-12s %v\n", e.Name, err)
			failed++
			continue
		}
		switch {
		case rep.Clean() && rep.Status == exp.Identical:
			fmt.Fprintf(out, "ok   %-12s identical to golden (%s)\n", e.Name, source)
		case rep.Clean():
			fmt.Fprintf(out, "ok   %-12s within tolerance (%d numeric deltas absorbed)\n", e.Name, len(rep.Tolerated))
		default:
			fmt.Fprintf(out, "FAIL %-12s %s: %d drifts, %d budget violations\n",
				e.Name, rep.Status, len(rep.Drifts), len(rep.Violations))
			fmt.Fprint(out, rep.Summary(8))
			failed++
		}
	}
	v.reportStats(errw)
	if failed > 0 {
		fmt.Fprintf(out, "\ncbctl diff: %d of %d experiments failed\n", failed, len(exps))
		fmt.Fprintln(out, "If the change is intentional, re-record with: cbctl bless -all")
		return 1
	}
	return 0
}

func runBless(args []string, out, errw io.Writer) int {
	v := newFlags("bless", errw, false, true, false)
	if code, ok := v.parse(args); !ok {
		return code
	}
	exps, err := v.selectExps()
	if err != nil {
		fmt.Fprintf(errw, "cbctl: %v\n", err)
		return 2
	}
	root := v.moduleRoot()
	if root == "" {
		fmt.Fprintln(errw, "cbctl: bless needs the source tree; run from inside the module or pass -C <root>")
		return 2
	}
	if !v.openStore(errw) {
		return 2
	}
	opts := v.options(errw)
	warned := false
	for _, e := range exps {
		doc, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(errw, "cbctl: bless %s: %v\n", e.Name, err)
			return 1
		}
		b, err := doc.Canonical()
		if err != nil {
			fmt.Fprintf(errw, "cbctl: %v\n", err)
			return 1
		}
		for _, viol := range e.CheckBudgets(doc) {
			fmt.Fprintf(errw, "cbctl: warning: %s: %s (blessed anyway; revise the budget if intentional)\n", e.Name, viol)
			warned = true
		}
		p, err := exp.WriteGolden(root, e.Name, b)
		if err != nil {
			fmt.Fprintf(errw, "cbctl: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "blessed %-12s -> %s\n", e.Name, p)
	}
	if warned {
		fmt.Fprintln(errw, "cbctl: note: budget violations persist until the declared bounds are revised in internal/exp")
	}
	v.reportStats(errw)
	return 0
}

// benchBaselineFile is the checked-in benchmark baseline at the module root.
const benchBaselineFile = "BENCH_kernel.json"

// runBench converts `go test -bench -benchmem` output into the canonical
// baseline JSON, records it (-update), or gates a fresh run against the
// checked-in baseline (-check).
func runBench(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("cbctl bench", flag.ContinueOnError)
	fs.SetOutput(errw)
	in := fs.String("in", "-", "benchmark output to parse (default: stdin)")
	check := fs.Bool("check", false, "compare against the checked-in baseline; non-zero exit on regressions")
	update := fs.Bool("update", false, "record the parsed run as the new checked-in baseline")
	maxRegress := fs.Float64("max-regress", 0.25, "tolerated fractional ns/op slowdown per benchmark in -check mode")
	maxAllocs := fs.Float64("max-allocs-regress", -1, "tolerated fractional allocs/op growth in -check mode (default: -max-regress; allocs are machine-independent, so gate them tightly even when ns/op needs cross-machine slack)")
	note := fs.String("note", "", "provenance note stored in the baseline (with -update)")
	chdir := fs.String("C", "", "module root for the baseline file (default: walk up from cwd)")
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}
	if fs.NArg() != 0 || (*check && *update) {
		fmt.Fprintln(errw, "cbctl: bench takes no positional arguments; -check and -update are mutually exclusive")
		return 2
	}

	src := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintf(errw, "cbctl: %v\n", err)
			return 1
		}
		defer f.Close()
		src = f
	}
	fresh, err := benchdata.Parse(src)
	if err != nil {
		fmt.Fprintf(errw, "cbctl: %v\n", err)
		return 1
	}
	fresh.Note = *note

	root := *chdir
	if root == "" {
		root = exp.FindModuleRoot(".")
	}
	switch {
	case *update:
		if root == "" {
			fmt.Fprintln(errw, "cbctl: bench -update needs the source tree; run from inside the module or pass -C <root>")
			return 2
		}
		b, err := fresh.Canonical()
		if err != nil {
			fmt.Fprintf(errw, "cbctl: %v\n", err)
			return 1
		}
		path := filepath.Join(root, benchBaselineFile)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			fmt.Fprintf(errw, "cbctl: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "recorded %d benchmarks -> %s\n", len(fresh.Benchmarks), path)
		return 0
	case *check:
		if root == "" {
			fmt.Fprintln(errw, "cbctl: bench -check needs the source tree; run from inside the module or pass -C <root>")
			return 2
		}
		data, err := os.ReadFile(filepath.Join(root, benchBaselineFile))
		if err != nil {
			fmt.Fprintf(errw, "cbctl: no baseline: %v (record one with: cbctl bench -update)\n", err)
			return 1
		}
		baseline, err := benchdata.ParseBaseline(data)
		if err != nil {
			fmt.Fprintf(errw, "cbctl: %v\n", err)
			return 1
		}
		if *maxAllocs < 0 {
			*maxAllocs = *maxRegress
		}
		regs := benchdata.Compare(baseline, fresh, *maxRegress, *maxAllocs)
		if len(regs) == 0 {
			fmt.Fprintf(out, "ok   %d benchmarks within %.0f%% ns/op, %.0f%% allocs/op of %s\n",
				len(baseline.Benchmarks), *maxRegress*100, *maxAllocs*100, benchBaselineFile)
			return 0
		}
		for _, r := range regs {
			fmt.Fprintf(out, "FAIL %s\n", r)
		}
		fmt.Fprintf(out, "\ncbctl bench: %d of %d benchmarks regressed beyond %.0f%%\n",
			len(regs), len(baseline.Benchmarks), *maxRegress*100)
		fmt.Fprintln(out, "If the change is intentional, re-record with: go test ./internal/exp -run xxx -bench Kernel -benchmem | cbctl bench -update")
		return 1
	default:
		b, err := fresh.Canonical()
		if err != nil {
			fmt.Fprintf(errw, "cbctl: %v\n", err)
			return 1
		}
		out.Write(b)
		return 0
	}
}
