// The fig-resilience experiment family: §III-D evaluated live on the event
// kernel. Each grid point runs xPic under seeded node-failure injection with
// checkpoint/restart replay (internal/resilience) and is paired with its
// failure-free twin, so the document measures what each checkpoint level
// buys: the retained share of failure-free performance when a node dies
// mid-run, per execution mode.
package exp

import (
	"fmt"

	"clusterbooster/internal/resilience"
	"clusterbooster/internal/scr"
	"clusterbooster/internal/sweep"
	"clusterbooster/internal/vclock"
	"clusterbooster/internal/xpic"
)

// resilienceProfile returns the pinned fig-resilience workload: the quick
// Table II reduction at 24 steps, 2 ranks per solver, checkpointing every
// 4th step. MTBFs below are virtual seconds scaled to this workload's
// millisecond makespans (the failure model is scale-free; CI cannot wait
// simulated hours), tuned with the per-mode seeds so every failing grid
// point sees exactly one mid-run failure.
func resilienceProfile() xpic.Config { return xpic.QuickConfig(24) }

// resilienceRow is one (mode, level) pair of the family; each expands to a
// failure-free and a failing scenario.
type resilienceRow struct {
	key   string // measure key fragment, e.g. "booster_buddy"
	mode  xpic.Mode
	level string // "local", "buddy", "global"
	scr   scr.Config
	mtbf  vclock.Time
	seed  int64
}

// resilienceRows is the family's grid: modes × surviving-level cadences.
// The global level needs a mono mode (one shared SION container); the seeds
// are pinned per (mode, mtbf) so the single failure lands mid-run — after
// at least one checkpoint sealed for the redundant levels, so local-only
// rows restart cold while buddy/global rows rewind warm.
func resilienceRows() []resilienceRow {
	const monoMTBF = 30 * vclock.Millisecond
	const splitMTBF = 130 * vclock.Millisecond // the spawn window stretches the C+B run
	return []resilienceRow{
		{key: "cluster_local", mode: xpic.ClusterOnly, level: "local", scr: scr.Config{}, mtbf: monoMTBF, seed: 4},
		{key: "cluster_buddy", mode: xpic.ClusterOnly, level: "buddy", scr: scr.Config{BuddyEvery: 1}, mtbf: monoMTBF, seed: 4},
		{key: "booster_local", mode: xpic.BoosterOnly, level: "local", scr: scr.Config{}, mtbf: monoMTBF, seed: 2},
		{key: "booster_buddy", mode: xpic.BoosterOnly, level: "buddy", scr: scr.Config{BuddyEvery: 1}, mtbf: monoMTBF, seed: 2},
		{key: "booster_global", mode: xpic.BoosterOnly, level: "global", scr: scr.Config{GlobalEvery: 1}, mtbf: monoMTBF, seed: 2},
		{key: "split_local", mode: xpic.SplitCB, level: "local", scr: scr.Config{}, mtbf: splitMTBF, seed: 6},
		{key: "split_buddy", mode: xpic.SplitCB, level: "buddy", scr: scr.Config{BuddyEvery: 1}, mtbf: splitMTBF, seed: 6},
	}
}

// params builds the row's resilience parameters; failing selects the
// injected-failure variant.
func (r resilienceRow) params(failing bool) resilience.Params {
	p := resilience.Params{
		Mode:            r.mode,
		Nodes:           2,
		Workload:        resilienceProfile(),
		CheckpointEvery: 4,
		SCR:             r.scr,
		RestartOverhead: 2 * vclock.Millisecond,
	}
	if failing {
		p.MTBF = r.mtbf
		p.Seed = r.seed
		p.MaxFailures = 1
	}
	return p
}

// resilienceScenario wraps one grid point as a self-contained Scenario —
// fresh system, fresh SCR manager, a failure injector seeded from the
// point's own parameters — reporting the standard xPic metric set plus the
// resilience accounting.
func resilienceScenario(name string, p resilience.Params) sweep.Scenario {
	return sweep.Scenario{Name: name, Run: func() (sweep.Outcome, error) {
		out, err := resilience.Run(p)
		if err != nil {
			return sweep.Outcome{}, err
		}
		rep := out.Report
		m := sweep.Metrics{
			"makespan_s":         rep.Makespan.Seconds(),
			"field_s":            rep.FieldTime.Seconds(),
			"particle_s":         rep.ParticleTime.Seconds(),
			"failures":           float64(out.Failures),
			"restarts":           float64(len(out.Restarts)),
			"checkpoints":        float64(out.Checkpoints),
			"checkpoint_s":       out.CheckpointTime.Seconds(),
			"lost_work_s":        out.LostWork.Seconds(),
			"restore_s":          out.RestoreTime.Seconds(),
			"restart_overhead_s": out.RestartOverheadTotal.Seconds(),
		}
		if n := len(out.Restarts); n > 0 {
			m["rewind_step"] = float64(out.Restarts[n-1].FromStep)
			cold := 0
			for _, r := range out.Restarts {
				if r.Cold {
					cold++
				}
			}
			m["cold_restarts"] = float64(cold)
		}
		return sweep.Outcome{Metrics: m, XPic: &rep}, nil
	}}
}

func registerFigResilience() {
	rows := resilienceRows()
	e := Experiment{
		Name:    "fig-resilience",
		Title:   "Resilience: checkpoint level vs node failure, live on the event kernel (§III-D)",
		Version: 1,
		Grid:    "3 modes x surviving-level cadence (local/buddy/global) x {failure-free, 1 seeded failure}, 2 ranks per solver",
		Profile: "ci-resilience",
		Tolerance: map[string]float64{
			"*": 0.02,
		},
		// Measured floors at ci-resilience (retention = failure-free makespan
		// over post-failure makespan): redundant levels rewind warm and keep
		// most of the lost ground, local-only restarts cold and pays the full
		// prefix again. Blessing cannot relax these — a model change that
		// erodes what buddy checkpointing buys fails diff until the bounds
		// themselves are revised.
		Budgets: []Budget{
			{Measure: "retention_cluster_buddy", Kind: MinBudget, Bound: 0.65},
			{Measure: "retention_booster_buddy", Kind: MinBudget, Bound: 0.80},
			{Measure: "retention_booster_global", Kind: MinBudget, Bound: 0.80},
			{Measure: "retention_split_buddy", Kind: MinBudget, Bound: 0.45},
			{Measure: "buddy_gain_cluster", Kind: MinBudget, Bound: 1.15},
			{Measure: "buddy_gain_booster", Kind: MinBudget, Bound: 1.25},
			{Measure: "buddy_gain_split", Kind: MinBudget, Bound: 1.01},
			// Every failing point must actually see its failure fire, and
			// every redundant-level point must rewind warm (a cold restart
			// here means level selection regressed).
			{Measure: "min_failures_injected", Kind: MinBudget, Bound: 1},
			{Measure: "min_warm_rewind_step", Kind: MinBudget, Bound: 4},
		},
	}
	registerResultSet(e, func() ([]sweep.Scenario, error) {
		var scen []sweep.Scenario
		for _, r := range rows {
			for _, failing := range []bool{false, true} {
				variant := "mtbf=0"
				if failing {
					variant = fmt.Sprintf("mtbf=%v", r.mtbf)
				}
				name := fmt.Sprintf("fig-resilience/%s/%s/%s", r.mode, r.level, variant)
				scen = append(scen, resilienceScenario(name, r.params(failing)))
			}
		}
		return scen, nil
	}, func(rs sweep.ResultSet) (map[string]string, map[string]float64) {
		measures := sweepMeasures(rs)
		minFailures, minRewind := -1.0, -1.0
		for i, r := range rows {
			ff, fail := rs.Results[2*i].Metrics, rs.Results[2*i+1].Metrics
			measures["retention_"+r.key] = ff["makespan_s"] / fail["makespan_s"]
			if f := fail["failures"]; minFailures < 0 || f < minFailures {
				minFailures = f
			}
			if r.level != "local" {
				if w := fail["rewind_step"]; minRewind < 0 || w < minRewind {
					minRewind = w
				}
			}
		}
		measures["min_failures_injected"] = minFailures
		measures["min_warm_rewind_step"] = minRewind
		for _, mode := range []string{"cluster", "booster", "split"} {
			measures["buddy_gain_"+mode] = measures["retention_"+mode+"_buddy"] / measures["retention_"+mode+"_local"]
		}
		cfg := resilienceProfile()
		meta := profileMeta(cfg, "ci-resilience")
		meta["grid"] = "rows expand [failure-free, failing]; see internal/exp/resilience.go for pinned seeds"
		return meta, measures
	})
}
