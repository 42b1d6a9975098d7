package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// resultsFile is a full benchmark run: every workload, end-to-end metrics
// over several runs and per-layer metrics from one traced run, with the
// host that produced them.
type resultsFile struct {
	Host      host                       `json:"host"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Runs      int                        `json:"runs"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	OSArch     string `json:"os_arch"`
}

type workloadResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"` // untraced samples over every run
	Metrics   map[string]summary `json:"metrics"`
}

// summary is one metric over the runs of a workload; each value is one
// run's median over its samples.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, xs []float64) summary {
	q1, med, q3 := quartiles(xs)
	return summary{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(xs), Values: xs}
}

// runSuite runs every workload: runs untraced runs each, interleaved so a
// slow spell of the host spreads over all workloads, then one traced run
// each. It prints every metric with its unit.
func runSuite(root string, seed uint64, seconds float64, runs int, outFile string, stdout, stderr io.Writer) int {
	rf := resultsFile{Host: thisHost(), Seed: seed, Seconds: seconds, Runs: runs, Workloads: map[string]*workloadResult{}}
	values := map[string]map[string][]float64{}
	for _, w := range workloads {
		rf.Workloads[w.Name] = &workloadResult{Metrics: map[string]summary{}}
		values[w.Name] = map[string][]float64{}
	}
	for r := range runs {
		for _, w := range workloads {
			out, err := measure(runConfig{workload: w, seed: seed + uint64(r), seconds: seconds, root: root}, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "cbbench: %s: %v\n", w.Name, err)
				return 1
			}
			wr := rf.Workloads[w.Name]
			wr.Attempted += out.Attempted
			wr.Failed += out.Failed
			wr.Samples += out.Samples
			for _, m := range endToEnd {
				values[w.Name][m.Name] = append(values[w.Name][m.Name], out.Metrics[m.Name])
			}
		}
	}
	for _, w := range workloads {
		out, err := measure(runConfig{workload: w, seed: seed, seconds: seconds, root: root, traceDir: traceDir}, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "cbbench: %s: %v\n", w.Name, err)
			return 1
		}
		wr := rf.Workloads[w.Name]
		wr.Attempted += out.Attempted
		wr.Failed += out.Failed
		for _, m := range endToEnd {
			wr.Metrics[m.Name] = summarize(m.Unit, values[w.Name][m.Name])
		}
		for name, v := range out.Metrics {
			wr.Metrics[name] = summarize(unitOf(name), []float64{v})
		}
	}

	failed := 0
	fmt.Fprintf(stdout, "%-9s %-26s %-6s %12s %12s %12s %3s\n", "WORKLOAD", "METRIC", "UNIT", "MEDIAN", "Q1", "Q3", "N")
	for _, w := range workloads {
		wr := rf.Workloads[w.Name]
		failed += wr.Failed
		fmt.Fprintf(stdout, "%-9s %-26s %d of %d experiments\n", w.Name, "failed", wr.Failed, wr.Attempted)
		for _, m := range metricsOf(wr, wr) {
			s := wr.Metrics[m.Name]
			fmt.Fprintf(stdout, "%-9s %-26s %-6s %12.6g %12.6g %12.6g %3d\n", w.Name, m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.N)
		}
	}
	if outFile != "" {
		if err := writeJSON(outFile, rf); err != nil {
			fmt.Fprintf(stderr, "cbbench: %v\n", err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// unitOf gives a metric its unit: the table's, or seconds for the cpu
// bucket of a module the table does not list.
func unitOf(name string) string {
	for _, m := range allMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	return "s"
}

func thisHost() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func readResults(path string) (resultsFile, error) {
	var rf resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := readResults(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "cbbench: %v\n", err)
		return 2
	}
	cur, err := readResults(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "cbbench: %v\n", err)
		return 2
	}
	if compare(old, cur, stdout) > 0 {
		return 1
	}
	return 0
}

// Verdicts of a comparison.
const (
	better     = "better"
	worse      = "worse"
	same       = "same"
	unresolved = "unresolved"
	changed    = "CHANGED" // an exact count moved
	info       = "-"       // a per-layer time: no bound to judge by
)

// verdict judges one metric of NEW against OLD. An exact count compares
// exactly. An end-to-end metric is worse when its median moved the wrong
// way by more than its bound, and better when it moved the right way by
// more than the spread of OLD's own runs (the distance between their
// quartiles). When OLD's spread is wider than the bound the metric is
// unresolved, unless every run of NEW reads better than every run of OLD.
func verdict(m metric, old, cur summary) string {
	switch {
	case m.Exact:
		if old.Median == cur.Median {
			return same
		}
		return changed
	case m.Bound == 0:
		return info
	}
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	worsening := sign * (cur.Median - old.Median) // > 0: NEW is worse
	allBetter := len(old.Values) > 0 && len(cur.Values) > 0
	for _, c := range cur.Values {
		for _, o := range old.Values {
			allBetter = allBetter && sign*(c-o) < 0
		}
	}
	spread := old.Q3 - old.Q1
	switch {
	case spread > m.Bound*old.Median:
		if allBetter {
			return better
		}
		return unresolved
	case worsening > m.Bound*old.Median:
		return worse
	case -worsening > spread:
		return better
	}
	return same
}

// compare prints, per workload and metric, both medians and quartiles and
// a verdict; it returns how many verdicts are worse, unresolved or a
// changed count, plus workloads with failed experiments.
func compare(old, cur resultsFile, w io.Writer) int {
	bad := 0
	fmt.Fprintf(w, "%-9s %-26s %-28s %-28s %s\n", "WORKLOAD", "METRIC", "OLD median [q1, q3]", "NEW median [q1, q3]", "VERDICT")
	for _, wl := range workloads {
		o, c := old.Workloads[wl.Name], cur.Workloads[wl.Name]
		if o == nil || c == nil {
			continue
		}
		if c.Failed > 0 {
			fmt.Fprintf(w, "%-9s %-26s %-28s %-28s %s\n", wl.Name, "failed/attempted",
				fmt.Sprintf("%d/%d", o.Failed, o.Attempted), fmt.Sprintf("%d/%d", c.Failed, c.Attempted), "FAILED")
			bad++
		}
		for _, m := range metricsOf(o, c) {
			om, cm := o.Metrics[m.Name], c.Metrics[m.Name]
			v := verdict(m, om, cm)
			if v == worse || v == unresolved || v == changed {
				bad++
			}
			fmt.Fprintf(w, "%-9s %-26s %-28s %-28s %s\n", wl.Name, m.Name, quart(om), quart(cm), v)
		}
	}
	return bad
}

// metricsOf lists the metrics both results hold: the benchmark's own in
// table order, then any other names, which carry no bound.
func metricsOf(o, c *workloadResult) []metric {
	var out []metric
	known := map[string]bool{}
	for _, m := range allMetrics {
		known[m.Name] = true
		_, inO := o.Metrics[m.Name]
		_, inC := c.Metrics[m.Name]
		if inO && inC {
			out = append(out, m)
		}
	}
	var extra []string
	for name := range o.Metrics {
		if _, inC := c.Metrics[name]; inC && !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		out = append(out, metric{Name: name, Unit: o.Metrics[name].Unit})
	}
	return out
}

func quart(s summary) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g]", s.Median, s.Q1, s.Q3)
}
