package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clusterbooster/internal/benchdata"
)

const benchOutput = `goos: linux
BenchmarkKernelFast 	 1000000	      1000 ns/op	     100 B/op	       2 allocs/op
BenchmarkKernelSlow 	     100	   2000000 ns/op	    5000 B/op	      40 allocs/op
PASS
`

// benchDir writes the benchmark output to a temp module root and returns
// (root, input path).
func benchDir(t *testing.T) (string, string) {
	t.Helper()
	root := t.TempDir()
	in := filepath.Join(root, "bench.out")
	if err := os.WriteFile(in, []byte(benchOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	return root, in
}

func TestBenchParsePrints(t *testing.T) {
	_, in := benchDir(t)
	var out, errw bytes.Buffer
	if code := dispatch([]string{"bench", "-in", in}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	b, err := benchdata.ParseBaseline(out.Bytes())
	if err != nil {
		t.Fatalf("output is not a baseline: %v\n%s", err, out.String())
	}
	if len(b.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(b.Benchmarks))
	}
}

func TestBenchUpdateThenCheck(t *testing.T) {
	root, in := benchDir(t)
	var out, errw bytes.Buffer
	if code := dispatch([]string{"bench", "-update", "-C", root, "-in", in, "-note", "test"}, &out, &errw); code != 0 {
		t.Fatalf("update: exit %d, stderr: %s", code, errw.String())
	}
	if _, err := os.Stat(filepath.Join(root, "BENCH_kernel.json")); err != nil {
		t.Fatalf("baseline not written: %v", err)
	}

	// Identical run: check passes.
	out.Reset()
	if code := dispatch([]string{"bench", "-check", "-C", root, "-in", in}, &out, &errw); code != 0 {
		t.Fatalf("check: exit %d\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Fatalf("check output: %s", out.String())
	}

	// Regressed run: ns/op +50% and allocs +50% on one benchmark, the other
	// missing entirely — check must fail and name both.
	regressed := filepath.Join(root, "regressed.out")
	slow := "BenchmarkKernelFast 	 1000	      1500 ns/op	     100 B/op	       3 allocs/op\n"
	if err := os.WriteFile(regressed, []byte(slow), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := dispatch([]string{"bench", "-check", "-C", root, "-in", regressed}, &out, &errw); code != 1 {
		t.Fatalf("regressed check: exit %d, want 1\n%s", code, out.String())
	}
	for _, want := range []string{"KernelFast", "ns/op", "KernelSlow", "missing"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("regression report misses %q:\n%s", want, out.String())
		}
	}

	// A generous tolerance absorbs the slowdown but not the missing bench.
	out.Reset()
	if code := dispatch([]string{"bench", "-check", "-max-regress", "0.6", "-C", root, "-in", regressed}, &out, &errw); code != 1 {
		t.Fatalf("tolerant check: exit %d, want 1 (KernelSlow is missing)\n%s", code, out.String())
	}
}

func TestBenchUsageErrors(t *testing.T) {
	root, in := benchDir(t)
	var out, errw bytes.Buffer
	if code := dispatch([]string{"bench", "-check", "-update", "-C", root, "-in", in}, &out, &errw); code != 2 {
		t.Fatalf("-check -update together: exit %d, want 2", code)
	}
	// -check without a recorded baseline fails with a hint.
	if code := dispatch([]string{"bench", "-check", "-C", root, "-in", in}, &out, &errw); code != 1 {
		t.Fatalf("check without baseline: exit %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "bench -update") {
		t.Fatalf("missing re-record hint: %s", errw.String())
	}
}
