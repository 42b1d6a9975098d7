package main

import (
	"os"
	"strings"
	"testing"
)

func TestParseTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/fold.traces")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fold, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	wantCPU := map[string]int64{
		"engine": 30, // a runtime leaf (channel send) under an engine frame
		"xpic":   20, // no runtime leaf
		// The innermost repository frame wins: the vclock heap, inlined
		// into the engine, is charged to vclock.
		"vclock":         10,
		"gc":             10, // a GC worker, no repository frame
		"clusterbooster": 10, // the root package
		// The scheduler stack with no repository frame, plus the 20ms of
		// stackless samples pprof does not print.
		"other": 40,
	}
	wantRuntime := map[string]int64{"engine": 30, "vclock": 10}
	if f := fold.CPUMs; len(f) != len(wantCPU) {
		t.Errorf("buckets %v, want %v", f, wantCPU)
	}
	for mod, want := range wantCPU {
		if got := fold.CPUMs[mod]; got != want {
			t.Errorf("cpu %s = %dms, want %dms", mod, got, want)
		}
	}
	for mod, want := range wantRuntime {
		if got := fold.RuntimeMs[mod]; got != want {
			t.Errorf("runtime cpu %s = %dms, want %dms", mod, got, want)
		}
	}
	if fold.RuntimeMs["xpic"] != 0 {
		t.Errorf("xpic runtime cpu = %dms, want 0", fold.RuntimeMs["xpic"])
	}
	if fold.sum() != fold.TotalMs || fold.TotalMs != 120 {
		t.Errorf("buckets sum to %dms, total %dms, want both 120ms", fold.sum(), fold.TotalMs)
	}

	m := fold.metrics(2) // per pass over two passes
	for name, want := range map[string]float64{
		"engine.cpu_s": 0.015, "engine.runtime_cpu_s": 0.015, "go.gc_cpu_s": 0.005,
		"go.other_cpu_s": 0.02, "sched.cpu_s": 0, "clusterbooster.cpu_s": 0.005,
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
}

func TestParseTracesRejectsOvercount(t *testing.T) {
	text := "Duration: 1s, Total samples = 10ms (1.00%)\n" +
		"-----------+----\n      20ms   runtime.futex\n-----------+----\n"
	if _, err := parseTraces(strings.NewReader(text)); err == nil {
		t.Fatal("samples above the profile total folded without error")
	}
	if _, err := parseTraces(strings.NewReader("-----------+----\n")); err == nil {
		t.Fatal("traces without a total folded without error")
	}
}
