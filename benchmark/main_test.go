package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"clusterbooster/internal/exp"
)

// TestMain lets the test binary serve as the benchmark's child, so the
// tests below measure through the real child path.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

func repoRoot(t *testing.T) string {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestSmokeFacility runs one untraced and one traced facility run of a
// single sample each and checks every metric is reported and correct.
func TestSmokeFacility(t *testing.T) {
	w, _ := findWorkload("facility")
	dir := t.TempDir()
	for _, tc := range []struct {
		traceDir string
		list     []metric
	}{{"", endToEnd}, {dir, perLayer}} {
		out, err := measure(runConfig{workload: w, seed: 1, seconds: 1e-3, root: repoRoot(t), traceDir: tc.traceDir}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		line, err := resultLine(out, tc.list)
		if err != nil {
			t.Fatal(err)
		}
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line, &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 || res.Attempted%len(w.Experiments) != 0 {
			t.Errorf("result %s: want correct, 0 failed of a whole number of passes", line)
		}
		for _, m := range tc.list {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
			}
		}
	}
	for _, f := range []string{"facility.trace.json", "facility.cpu.pprof", "facility.layers.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("traced run left no %s: %v", f, err)
		}
	}
}

// TestTamperedGoldenFails shows the correctness check can fail: a module
// root whose golden for one facility experiment was edited makes exactly
// that experiment fail.
func TestTamperedGoldenFails(t *testing.T) {
	w, _ := findWorkload("facility")
	golden, _, err := exp.Golden("fig-facility", "")
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(golden, []byte(`"version": 1`), []byte(`"version": 2`), 1)
	if bytes.Equal(tampered, golden) {
		t.Fatal("fig-facility golden has no version field to tamper with")
	}
	root := t.TempDir()
	path := filepath.Join(root, exp.GoldenPath("fig-facility"))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := measure(runConfig{workload: w, seed: 1, seconds: 1e-3, root: root}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if out.Attempted != len(w.Experiments) || out.Failed != 1 || out.correct() {
		t.Errorf("failed %d of %d, correct %v; want 1 of %d, not correct", out.Failed, out.Attempted, out.correct(), len(w.Experiments))
	}
}

// TestWorkloadsPartitionRegistry checks that the workloads cover every
// registered experiment exactly once, so a full benchmark run checks
// every golden.
func TestWorkloadsPartitionRegistry(t *testing.T) {
	var got []string
	for _, w := range workloads {
		got = append(got, w.Experiments...)
	}
	want := exp.Names()
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("workloads run %v, registry holds %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("workloads run %v, registry holds %v", got, want)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric and
// workload tables in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(repoRoot(t), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var bj struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var want struct{ w, e, p []entry }
	for _, w := range workloads {
		want.w = append(want.w, entry{Name: w.Name, Why: w.Why})
	}
	for _, m := range endToEnd {
		want.e = append(want.e, entry{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: &m.Bound})
	}
	for _, m := range perLayer {
		want.p = append(want.p, entry{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	for _, c := range []struct {
		key       string
		got, want []entry
	}{{"workloads", bj.Workloads, want.w}, {"end_to_end", bj.EndToEnd, want.e}, {"per_layer", bj.PerLayer, want.p}} {
		g, _ := json.Marshal(c.got)
		w, _ := json.Marshal(c.want)
		if !bytes.Equal(g, w) {
			t.Errorf("BENCHMARK.json %s:\n got %s\nwant %s", c.key, g, w)
		}
	}
}
