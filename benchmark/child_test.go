package main

import (
	"runtime"
	"testing"
)

// TestSpanMetrics checks the self-time and pool-idle arithmetic on one
// experiment whose run span holds three scenarios, two of them
// overlapping.
func TestSpanMetrics(t *testing.T) {
	r := newRecorder(1)
	r.spans = []span{
		{ID: 1, Kind: "run", Name: "e", Start: 0, End: 100e6},
		{ID: 2, Parent: 1, Kind: "scenario", Start: 10e6, End: 50e6},
		{ID: 3, Parent: 1, Kind: "scenario", Start: 20e6, End: 60e6},
		{ID: 4, Parent: 1, Kind: "scenario", Start: 70e6, End: 80e6},
		{ID: 5, Kind: "canonical", Name: "e", Start: 100e6, End: 103e6},
		{ID: 6, Kind: "diff", Name: "e", Start: 103e6, End: 104e6},
	}
	workers := float64(runtime.GOMAXPROCS(0))
	want := map[string]float64{
		"sweep.scenarios":  3,
		"sweep.scenario_s": 0.090,
		// The scenarios cover 10-60 and 70-80 ms of the 100 ms run.
		"exp.self_s": 0.040,
		// The pool spans 10-80 ms and the scenarios keep it busy 90 ms.
		"sweep.idle_s":    (workers*70 - 90) / 1e3,
		"exp.canonical_s": 0.003,
		"exp.diff_s":      0.001,
	}
	got := r.metrics()
	for k, v := range want {
		if d := got[k] - v; d > 1e-12 || d < -1e-12 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}
