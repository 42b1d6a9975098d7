// Command cbbench is the simulator's benchmark. It measures the experiment
// catalog from outside: every sample re-executes this binary as a fresh
// child process that runs one workload's experiments with default options,
// checks each document against its golden, and reports counter deltas.
//
// Build and run it from the repository root with benchmark/run.sh:
//
//	bash benchmark/run.sh --workload facility --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -runs 3 -o results.json   # every workload
//	bash benchmark/run.sh -compare old.json new.json
//
// One run prints, as its last line of standard output, a JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"clusterbooster/internal/exp"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func childMain(spec string) int {
	var s childSpec
	if err := json.Unmarshal([]byte(spec), &s); err != nil {
		fmt.Fprintf(os.Stderr, "cbbench child: %v\n", err)
		return 2
	}
	if err := runChild(s, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "cbbench child: %v\n", err)
		return 1
	}
	return 0
}

// traceDir is where traced runs write their artifacts, relative to the
// repository root the benchmark runs from.
var traceDir = filepath.Join(".bench_build", "trace")

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run once; empty runs every workload -runs times plus one traced run each")
	seed := fs.Uint64("seed", 1, "seed of the experiment order within each sample")
	seconds := fs.Float64("seconds", 20, "how long one run samples")
	trace := fs.Int("trace", 0, "1 = traced run: report the per-layer metrics")
	runs := fs.Int("runs", 3, "untraced runs per workload when running every workload")
	outFile := fs.String("o", "", "write every workload's results to this file")
	cmp := fs.Bool("compare", false, "compare two results files: -compare OLD NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "cbbench: -compare takes OLD and NEW results files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *trace < 0 || *trace > 1 || *seconds <= 0 || *runs < 1 {
		fs.Usage()
		return 2
	}
	root := exp.FindModuleRoot(".")
	if root == "" {
		fmt.Fprintln(stderr, "cbbench: run from the repository: no clusterbooster go.mod above the working directory")
		return 1
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "cbbench: %v\n", err)
		return 1
	}
	if *name == "" {
		return runSuite(root, *seed, *seconds, *runs, *outFile, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "cbbench: unknown workload %q\n", *name)
		return 2
	}
	cfg := runConfig{workload: w, seed: *seed, seconds: *seconds, root: root}
	list := endToEnd
	if *trace == 1 {
		cfg.traceDir, list = traceDir, perLayer
	}
	out, err := measure(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "cbbench: %s: %v\n", w.Name, err)
		return 1
	}
	line, err := resultLine(out, list)
	if err != nil {
		fmt.Fprintf(stderr, "cbbench: %s: %v\n", w.Name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.correct() {
		return 1
	}
	return 0
}

// resultLine renders a run as the benchmark's one-line JSON result.
func resultLine(out runOutput, list []metric) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range list {
		v, ok := out.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.correct(), out.Attempted, out.Failed, metrics})
}
