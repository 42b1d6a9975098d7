package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(xs, n=4), by which the benchmark's spread is judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{10, 10.1, 10.2, 9.9, 10}
	wide := []float64{6, 10, 14, 8, 12} // quartile spread 5, above 10% of 10
	cases := []struct {
		metric   string
		old, new []float64
		want     string
	}{
		{"wall_s", steady, []float64{13, 13.1, 12.9, 13, 13.2}, worse},
		{"wall_s", steady, []float64{8, 8.1, 7.9, 8, 8.2}, better},
		{"wall_s", steady, []float64{10.3, 10.4, 10.2, 10.3, 10.5}, same},
		{"peak_rss_mb", wide, []float64{9, 11, 10, 12, 8}, unresolved},
		{"peak_rss_mb", wide, []float64{5, 5.5, 4, 4.5, 5}, better},
		{"setup_s", []float64{0.002}, []float64{0.0024}, same},
		{"setup_s", []float64{0.002}, []float64{0.003}, worse},
		{"engine.events", []float64{4990254}, []float64{4990254}, same},
		{"engine.events", []float64{4990254}, []float64{4990255}, changed},
		{"sweep.idle_s", []float64{6}, []float64{3}, info},
		{"xpic.cpu_s", []float64{2}, []float64{9}, info}, // a bucket the table does not list
	}
	for _, tc := range cases {
		old := resultsFile{Workloads: map[string]*workloadResult{"io": {Attempted: 2, Metrics: map[string]summary{
			tc.metric: summarize(unitOf(tc.metric), tc.old)}}}}
		cur := resultsFile{Workloads: map[string]*workloadResult{"io": {Attempted: 2, Metrics: map[string]summary{
			tc.metric: summarize(unitOf(tc.metric), tc.new)}}}}
		dir := t.TempDir()
		oldPath, newPath := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
		if err := writeJSON(oldPath, old); err != nil {
			t.Fatal(err)
		}
		if err := writeJSON(newPath, cur); err != nil {
			t.Fatal(err)
		}
		var out, errw bytes.Buffer
		code := compareFiles(oldPath, newPath, &out, &errw)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) != 2 {
			t.Fatalf("%s: compare printed %q (stderr %q)", tc.metric, out.String(), errw.String())
		}
		fields := strings.Fields(lines[1])
		if fields[0] != "io" || fields[1] != tc.metric || fields[len(fields)-1] != tc.want {
			t.Errorf("%s %v -> %v: got %q, want verdict %s", tc.metric, tc.old, tc.new, lines[1], tc.want)
		}
		wantCode := 0
		if tc.want == worse || tc.want == unresolved || tc.want == changed {
			wantCode = 1
		}
		if code != wantCode {
			t.Errorf("%s -> %s: exit code %d, want %d", tc.metric, tc.want, code, wantCode)
		}
	}
}

func TestVerdictHigherIsBetter(t *testing.T) {
	m := metric{Name: "throughput", Better: "higher", Bound: 0.1}
	old := summarize("1/s", []float64{100, 101, 99})
	if v := verdict(m, old, summarize("1/s", []float64{80, 81, 79})); v != worse {
		t.Errorf("a drop of a higher-is-better metric: %s, want %s", v, worse)
	}
	if v := verdict(m, old, summarize("1/s", []float64{120, 121, 119})); v != better {
		t.Errorf("a rise of a higher-is-better metric: %s, want %s", v, better)
	}
}

func TestCompareFlagsFailures(t *testing.T) {
	ok := &workloadResult{Attempted: 3, Metrics: map[string]summary{"wall_s": summarize("s", []float64{1})}}
	bad := &workloadResult{Attempted: 3, Failed: 1, Metrics: ok.Metrics}
	var out bytes.Buffer
	n := compare(resultsFile{Workloads: map[string]*workloadResult{"facility": ok}},
		resultsFile{Workloads: map[string]*workloadResult{"facility": bad}}, &out)
	if n != 1 || !strings.Contains(out.String(), "FAILED") {
		t.Errorf("compare with a failed experiment: %d findings, output %q", n, out.String())
	}
}
