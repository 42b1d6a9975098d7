package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"clusterbooster/internal/exp"
)

// Test-only experiments: registered once into the process-global catalog
// under the test/ prefix, blessed into per-test temp roots via -C so the
// real testdata tree is never touched.
//
//   - test/stable   — deterministic; diff is always identical.
//   - test/drifting — each run's measure drifts 1 % from the last; a plain
//     diff fails, -tolerance (declared at 5 %) absorbs it.
//   - test/budget   — deterministic but violates its own declared budget;
//     diff must fail on the budget alone, bless must warn yet succeed.
var registerFakes = sync.OnceFunc(func() {
	stable := exp.Experiment{
		Name: "test/stable", Title: "stable fake", Version: 1, Grid: "static", Profile: "n/a",
	}
	stable.Run = func(exp.Options) (exp.Document, error) {
		return fakeDoc(stable, 1.0), nil
	}
	exp.Register(stable)

	drift := 1.0
	drifting := exp.Experiment{
		Name: "test/drifting", Title: "drifting fake", Version: 1, Grid: "static", Profile: "n/a",
		Tolerance: map[string]float64{"*": 0.05},
	}
	drifting.Run = func(exp.Options) (exp.Document, error) {
		drift *= 1.01
		return fakeDoc(drifting, drift), nil
	}
	exp.Register(drifting)

	budget := exp.Experiment{
		Name: "test/budget", Title: "budget-violating fake", Version: 1, Grid: "static", Profile: "n/a",
		Budgets: []exp.Budget{{Measure: "value", Kind: exp.MaxBudget, Bound: 0.5}},
	}
	budget.Run = func(exp.Options) (exp.Document, error) {
		return fakeDoc(budget, 1.0), nil // 1.0 > 0.5: always in violation
	}
	exp.Register(budget)
})

func fakeDoc(e exp.Experiment, value float64) exp.Document {
	payload, _ := json.Marshal(map[string]float64{"value": value})
	return exp.Document{
		Experiment: e.Name,
		Version:    e.Version,
		Measures:   map[string]float64{"value": value},
		Payload:    payload,
	}
}

// cbctl runs one verb in-process and captures output and exit code.
func cbctl(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	registerFakes()
	var out, errw bytes.Buffer
	code = dispatch(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestVerbDispatch(t *testing.T) {
	for _, tc := range []struct {
		name     string
		args     []string
		wantCode int
		wantOut  string // substring of stdout ("" = don't care)
		wantErr  string // substring of stderr
	}{
		{"no verb", nil, 2, "", "usage:"},
		{"unknown verb", []string{"frobnicate"}, 2, "", `unknown verb "frobnicate"`},
		{"help", []string{"help"}, 0, "", "usage:"},
		{"list", []string{"list"}, 0, "fig-resilience", ""},
		{"list rejects args", []string{"list", "fig7"}, 2, "", "no experiment arguments"},
		{"list verbose budgets", []string{"list", "-v"}, 0, "budget: retention_split_buddy min 0.45", ""},
		{"run needs selection", []string{"run"}, 2, "", "no experiments selected"},
		{"run unknown experiment", []string{"run", "no-such-exp"}, 2, "", `unknown experiment "no-such-exp"`},
		{"run all plus names conflict", []string{"run", "-all", "fig7"}, 2, "", "mutually exclusive"},
		{"run emits canonical JSON", []string{"run", "test/stable"}, 0, `"experiment": "test/stable"`, ""},
		{"run renders text", []string{"run", "-text", "table1"}, 0, "DEEP-ER", ""},
		{"run renders the paper's table2", []string{"run", "-text", "table2"}, 0, "900", ""},
		{"run -v logs progress", []string{"run", "-v", "sweep/fig3"}, 0, "", "cbctl: start "},
		{"run -stats prints cache counters", []string{"run", "-stats", "test/stable"}, 0, "", "cbctl: scenario cache:"},
		{"bad flag", []string{"run", "-definitely-not-a-flag"}, 2, "", "flag provided but not defined"},
		{"verb help exits zero", []string{"run", "-h"}, 0, "", "-workers"},
		{"diff missing golden", []string{"diff", "-C", t.TempDir(), "test/stable"}, 1, "missing golden", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := cbctl(t, tc.args...)
			if code != tc.wantCode {
				t.Fatalf("exit code %d, want %d (stdout %q, stderr %q)", code, tc.wantCode, stdout, stderr)
			}
			if tc.wantOut != "" && !strings.Contains(stdout, tc.wantOut) {
				t.Fatalf("stdout %q missing %q", stdout, tc.wantOut)
			}
			if tc.wantErr != "" && !strings.Contains(stderr, tc.wantErr) {
				t.Fatalf("stderr %q missing %q", stderr, tc.wantErr)
			}
		})
	}
}

// TestRunOutputParses checks the run verb's JSON is a canonical document.
func TestRunOutputParses(t *testing.T) {
	code, stdout, stderr := cbctl(t, "run", "test/stable")
	if code != 0 {
		t.Fatalf("run failed: %s", stderr)
	}
	doc, err := exp.ParseDocument([]byte(stdout))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Experiment != "test/stable" || doc.Measures["value"] != 1 {
		t.Fatalf("unexpected document %+v", doc)
	}
}

// TestBlessDiffRoundTrip blesses into a temp root and checks diff turns
// green against it — without touching the real testdata tree.
func TestBlessDiffRoundTrip(t *testing.T) {
	root := t.TempDir()
	code, stdout, stderr := cbctl(t, "bless", "-C", root, "test/stable")
	if code != 0 {
		t.Fatalf("bless failed (%d): %s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "blessed test/stable") {
		t.Fatalf("bless output %q", stdout)
	}
	code, stdout, _ = cbctl(t, "diff", "-C", root, "test/stable")
	if code != 0 || !strings.Contains(stdout, "identical to golden") {
		t.Fatalf("diff after bless: code %d, out %q", code, stdout)
	}
}

// TestDiffToleranceExitCodes drives the drifting experiment: byte drift must
// fail a plain diff (exit 1) and pass -tolerance (exit 0), since the 1 %
// drift sits inside the declared 5 % tolerance.
func TestDiffToleranceExitCodes(t *testing.T) {
	root := t.TempDir()
	if code, _, stderr := cbctl(t, "bless", "-C", root, "test/drifting"); code != 0 {
		t.Fatalf("bless failed: %s", stderr)
	}
	code, stdout, _ := cbctl(t, "diff", "-C", root, "test/drifting")
	if code != 1 {
		t.Fatalf("plain diff of drifted run: code %d, want 1 (out %q)", code, stdout)
	}
	if !strings.Contains(stdout, "drifts") {
		t.Fatalf("diff output %q missing drift report", stdout)
	}
	code, stdout, _ = cbctl(t, "diff", "-tolerance", "-C", root, "test/drifting")
	if code != 0 || !strings.Contains(stdout, "within tolerance") {
		t.Fatalf("tolerant diff: code %d, out %q", code, stdout)
	}
}

// TestBudgetViolationExitCodes drives the budget-violating experiment:
// bless warns but succeeds (baselines may be re-recorded), while diff fails
// with exit 1 even though the bytes match the golden — budgets survive
// blessing.
func TestBudgetViolationExitCodes(t *testing.T) {
	root := t.TempDir()
	code, _, stderr := cbctl(t, "bless", "-C", root, "test/budget")
	if code != 0 {
		t.Fatalf("bless of budget violator must succeed, got %d", code)
	}
	if !strings.Contains(stderr, "warning") || !strings.Contains(stderr, "budget value") {
		t.Fatalf("bless stderr %q missing budget warning", stderr)
	}
	code, stdout, _ := cbctl(t, "diff", "-C", root, "test/budget")
	if code != 1 {
		t.Fatalf("diff with budget violation: code %d, want 1 (out %q)", code, stdout)
	}
	if !strings.Contains(stdout, "1 budget violations") {
		t.Fatalf("diff output %q missing budget violation", stdout)
	}
}
