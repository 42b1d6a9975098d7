package exp

import (
	"testing"

	"clusterbooster/internal/core"
	"clusterbooster/internal/xpic"
)

// deepScaleConfig stretches the scale16384 geometry once more: 131072 rows
// decompose to the 2-rows-per-rank floor at n = 65536, with the step
// pipeline cut to the bone so a 65537-task kernel stays a minutes-scale
// test, not an experiment.
func deepScaleConfig() xpic.Config {
	cfg := scale16384Profile()
	cfg.NY = 131072
	cfg.Steps = 1
	cfg.CGMaxIter = 2
	return cfg
}

// TestDeepScale65536 runs the n=65536 Booster-only point — the largest job
// this repo simulates, 65536 ranks on one kernel — and checks the report is
// plausible. Excluded from -short: the run costs wall-clock minutes.
func TestDeepScale65536(t *testing.T) {
	if testing.Short() {
		t.Skip("n=65536 deep-scale point: minutes of wall clock, skipped in -short")
	}
	const n = 65536
	sys := core.New(n, n, core.Options{WithoutStorage: true})
	rep, err := sys.RunXPic(xpic.BoosterOnly, n, deepScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 || rep.RanksPerSolver != n {
		t.Errorf("implausible deep-scale report: %+v", rep)
	}
}
