// The registered catalog: the five paper artifacts (Table I, Table II,
// Fig. 3, Fig. 7, Fig. 8) and the standing sweep definitions, in the order
// the paper presents them. Golden runs are pinned to the CI profile — the
// Table II physics at reduced fidelity — so `cbctl diff -all` replays the
// whole catalog in CI seconds while exercising the full MPI + fabric +
// storage stack. See EXPERIMENTS.md for per-experiment documentation.
package exp

import (
	"encoding/json"
	"fmt"
	"strings"

	"clusterbooster/internal/bench"
	"clusterbooster/internal/sweep"
	"clusterbooster/internal/xpic"
)

// CIProfile returns the pinned golden workload: the paper's Table II setup
// (Table2Config) reduced to 60 steps at 1/512 particle fidelity. Fidelity
// scaling preserves the physics shape (who wins, by what factor) while
// cutting virtual work, so the golden documents remain faithful miniatures
// of the paper's runs.
func CIProfile() xpic.Config {
	cfg := xpic.Table2Config()
	cfg.Steps = 60
	cfg.ParticleScale = 512
	return cfg
}

// fig8NodeCounts is the x axis of Fig. 8 (ranks per solver).
func fig8NodeCounts() []int { return []int{1, 2, 4, 8} }

// ScaleProfile returns the pinned past-prototype workload: a tall, narrow
// grid (8 x 2048 cells) whose 2048 rows decompose down to two rows per rank
// at n = 1024, with reduced steps/particles so the whole strong-scaling
// series — 1024 Booster nodes included — replays in CI seconds. The paper's
// prototype stops at 8 nodes per solver; this profile is the registry's
// standing evidence that the execution kernel keeps rank counts cheap two
// orders of magnitude past that.
func ScaleProfile() xpic.Config {
	return xpic.Config{
		NX:                  8,
		NY:                  2048,
		PPC:                 8,
		Species:             xpic.DefaultSpecies(),
		Steps:               8,
		Dt:                  1.0,
		Theta:               0.5,
		CGTol:               1e-10,
		CGMaxIter:           12,
		DiagEvery:           4,
		DensityPerturbation: 0.30,
		ParticleScale:       4,
		Seed:                20180521,
	}
}

// weakProfile returns the weak-scaling workload for n ranks per solver: a
// constant 8x32 cell slab per rank (the global grid grows with the machine),
// so ideal scaling holds the makespan flat and any growth is communication.
func weakProfile(n int) xpic.Config {
	cfg := ScaleProfile()
	cfg.NY = 32 * n
	cfg.Steps = 6
	cfg.CGMaxIter = 10
	return cfg
}

// sweepOpts maps experiment options onto the sweep engine's.
func sweepOpts(o Options) sweep.Options {
	return sweep.Options{Workers: o.Workers, Observer: o.Observer, Context: o.Context}
}

func profileMeta(cfg xpic.Config, profile string) map[string]string {
	return map[string]string{
		"profile":  profile,
		"workload": fmt.Sprintf("%dx%d cells, ppc=%d, steps=%d, scale=%d", cfg.NX, cfg.NY, cfg.PPC, cfg.Steps, cfg.ParticleScale),
	}
}

// reportMeasures flattens one mode's report into the measures map.
func reportMeasures(m map[string]float64, prefix string, rep xpic.Report) {
	m[prefix+"_makespan_s"] = rep.Makespan.Seconds()
	m[prefix+"_field_s"] = rep.FieldTime.Seconds()
	m[prefix+"_particle_s"] = rep.ParticleTime.Seconds()
}

// sweepMeasures summarises a result set: the scenario count plus the
// per-metric maxima across scenarios (the values sweep budgets bind to).
// Failure counts are not a measure: registerResultSet aborts on the first
// failed scenario, so a document only ever records an all-green sweep.
func sweepMeasures(rs sweep.ResultSet) map[string]float64 {
	m := map[string]float64{
		"scenarios": float64(rs.Scenarios),
	}
	for _, r := range rs.Results {
		for k, v := range r.Metrics {
			key := "max_" + k
			if cur, ok := m[key]; !ok || v > cur {
				m[key] = v
			}
		}
	}
	return m
}

// parsePayload decodes a document payload into a typed result.
func parsePayload[T any](d Document) (T, error) {
	var out T
	if err := json.Unmarshal(d.Payload, &out); err != nil {
		return out, fmt.Errorf("exp: %s: decode payload: %w", d.Experiment, err)
	}
	return out, nil
}

// registerResultSet registers an experiment whose payload is the raw
// sweep.ResultSet, in its JSON encoding, so its golden
// gates the whole emitter pipeline, not just the physics. It runs the
// scenarios, aborts on the first failed one, and lets summarise derive the
// document's meta and measures from the all-green result set.
func registerResultSet(e Experiment, scenarios func() ([]sweep.Scenario, error),
	summarise func(sweep.ResultSet) (map[string]string, map[string]float64)) {
	e.Run = func(o Options) (Document, error) {
		scen, err := scenarios()
		if err != nil {
			return Document{}, err
		}
		rs := sweep.Run(scen, sweepOpts(o))
		if err := rs.FirstError(); err != nil {
			return Document{}, fmt.Errorf("exp: %s: %w", e.Name, err)
		}
		meta, measures := summarise(rs)
		return e.document(meta, measures, rs)
	}
	e.Render = func(d Document) (string, error) {
		rs, err := parsePayload[sweep.ResultSet](d)
		if err != nil {
			return "", err
		}
		return rs.RenderText(), nil
	}
	Register(e)
}

// registerSweep registers a raw-sweep experiment over a scenario generator:
// its measures are sweepMeasures and its profile label the declared Profile.
func registerSweep(e Experiment, scenarios func() ([]sweep.Scenario, error)) {
	registerResultSet(e, scenarios, func(rs sweep.ResultSet) (map[string]string, map[string]float64) {
		return map[string]string{"profile": e.Profile}, sweepMeasures(rs)
	})
}

// resultMetric returns one metric of the named scenario (0 if absent).
func resultMetric(rs sweep.ResultSet, name, metric string) float64 {
	for _, r := range rs.Results {
		if r.Name == name {
			return r.Metrics[metric]
		}
	}
	return 0
}

// modePair returns the makespans of the i-th [Booster, C+B] scenario pair
// of a result set laid out node counts outermost, modes innermost.
func modePair(rs sweep.ResultSet, i int) (booster, split float64) {
	return rs.Results[2*i].Metrics["makespan_s"], rs.Results[2*i+1].Metrics["makespan_s"]
}

func init() {
	registerTable1()
	registerTable2()
	registerFig3()
	registerFig7()
	registerFig8()
	registerFig8Scale()
	registerFig8Scale4096()
	registerFig8Scale16384()
	registerFigResilience()
	registerFigIO()
	registerFigFacility()
	registerFacility10k()
	registerFigFacilityResilience()
	registerFigModular()
	registerSweepFig3()
	registerSweepFig7()
	registerSweepFig8()
	registerSweepPaper()
	registerSweepXPicWeak()
}

func registerTable1() {
	e := Experiment{
		Name:    "table1",
		Title:   "Table I: hardware configuration of the DEEP-ER prototype",
		Version: 1,
		Grid:    "static (machine + fabric models)",
		Profile: "n/a",
	}
	e.Run = func(o Options) (Document, error) {
		return e.document(nil, nil, bench.Table1())
	}
	e.Render = func(d Document) (string, error) {
		rows, err := parsePayload[[]bench.Table1Row](d)
		if err != nil {
			return "", err
		}
		return bench.RenderTable1Rows(rows), nil
	}
	Register(e)
}

func registerTable2() {
	e := Experiment{
		Name:    "table2",
		Title:   "Table II: xPic experiment setup",
		Version: 1,
		Grid:    "static (workload configuration)",
		Profile: "paper",
	}
	e.Run = func(o Options) (Document, error) {
		return e.document(map[string]string{"profile": e.Profile}, nil, bench.Table2Rows(xpic.Table2Config()))
	}
	e.Render = func(d Document) (string, error) {
		rows, err := parsePayload[[]bench.Table2Row](d)
		if err != nil {
			return "", err
		}
		return bench.RenderTable2Rows(rows), nil
	}
	Register(e)
}

func registerFig3() {
	e := Experiment{
		Name:    "fig3",
		Title:   "Fig. 3: end-to-end MPI bandwidth and latency per node-type pair",
		Version: 1,
		Grid:    "25 message sizes (1 B - 16 MiB) x 3 node-type pairs, 2-rank jobs",
		Profile: "paper",
		Tolerance: map[string]float64{
			"bandwidth_MBs": 0.05,
			"latency_us":    0.05,
		},
		// Table I quotes 1.0 µs CN-CN / 1.8 µs BN-BN and ~10-11 GB/s
		// converged bandwidth; measured: 1.00 / 1.80 µs, 10989 MB/s.
		Budgets: []Budget{
			{Measure: "latency_cncn_us", Kind: MaxBudget, Bound: 1.2},
			{Measure: "latency_bnbn_us", Kind: MaxBudget, Bound: 2.1},
			{Measure: "bandwidth_converged_min_MBs", Kind: MinBudget, Bound: 9500},
		},
	}
	e.Run = func(o Options) (Document, error) {
		sizes := bench.Fig3Sizes()
		rs := sweep.Run(bench.Fig3Scenarios(sizes), sweepOpts(o))
		rows, err := bench.Fig3RowsFrom(sizes, rs)
		if err != nil {
			return Document{}, fmt.Errorf("exp: fig3: %w", err)
		}
		first, last := rows[0], rows[len(rows)-1]
		converged := last.BandwidthMBs[bench.CNCN]
		for _, k := range []bench.PairKind{bench.BNBN, bench.CNBN} {
			if v := last.BandwidthMBs[k]; v < converged {
				converged = v
			}
		}
		measures := map[string]float64{
			"latency_cncn_us":             first.LatencyUs[bench.CNCN],
			"latency_bnbn_us":             first.LatencyUs[bench.BNBN],
			"latency_cnbn_us":             first.LatencyUs[bench.CNBN],
			"bandwidth_converged_min_MBs": converged,
		}
		return e.document(map[string]string{"profile": "paper"}, measures, rows)
	}
	e.Render = func(d Document) (string, error) {
		rows, err := parsePayload[[]bench.Fig3Row](d)
		if err != nil {
			return "", err
		}
		return bench.RenderFig3(rows), nil
	}
	Register(e)
}

func registerFig7() {
	e := Experiment{
		Name:    "fig7",
		Title:   "Fig. 7: xPic runtime on one node per solver (Cluster / Booster / C+B)",
		Version: 1,
		Grid:    "1 node per solver x 3 execution modes",
		Profile: "ci-quick",
		Tolerance: map[string]float64{
			"*": 0.02,
		},
		// Measured at ci-quick: split makespan 2.12 s (virtual), gains
		// 1.27/1.19, field advantage 6.0. The Max bound is the perf gate: a
		// model change that slows the simulated C+B run past it fails diff
		// even after a bless.
		Budgets: []Budget{
			{Measure: "split_makespan_s", Kind: MaxBudget, Bound: 2.5},
			{Measure: "gain_vs_cluster", Kind: MinBudget, Bound: 1.05},
			{Measure: "gain_vs_booster", Kind: MinBudget, Bound: 1.05},
			{Measure: "field_advantage", Kind: MinBudget, Bound: 4.0},
		},
	}
	e.Run = func(o Options) (Document, error) {
		cfg := CIProfile()
		scen, err := bench.Fig7Grid(cfg).Scenarios()
		if err != nil {
			return Document{}, err
		}
		res, err := bench.Fig7From(sweep.Run(scen, sweepOpts(o)))
		if err != nil {
			return Document{}, fmt.Errorf("exp: fig7: %w", err)
		}
		measures := map[string]float64{
			"field_advantage":    res.FieldAdvantage(),
			"particle_advantage": res.ParticleAdvantage(),
			"gain_vs_cluster":    res.GainVsCluster(),
			"gain_vs_booster":    res.GainVsBooster(),
			"split_overhead":     res.Split.OverheadFraction(),
		}
		reportMeasures(measures, "cluster", res.Cluster)
		reportMeasures(measures, "booster", res.Booster)
		reportMeasures(measures, "split", res.Split)
		return e.document(profileMeta(cfg, e.Profile), measures, res)
	}
	e.Render = func(d Document) (string, error) {
		res, err := parsePayload[bench.Fig7Result](d)
		if err != nil {
			return "", err
		}
		return bench.RenderFig7(res), nil
	}
	Register(e)
}

func registerFig8() {
	e := Experiment{
		Name:    "fig8",
		Title:   "Fig. 8: xPic strong scaling, 1-8 nodes per solver",
		Version: 1,
		Grid:    "4 node counts (1,2,4,8) x 3 execution modes",
		Profile: "ci-quick",
		Tolerance: map[string]float64{
			"*": 0.02,
		},
		// Measured at ci-quick: split makespan 0.376 s at n=8, C+B
		// efficiency 0.705, gain vs Cluster 1.20.
		Budgets: []Budget{
			{Measure: "split_makespan_n8_s", Kind: MaxBudget, Bound: 0.45},
			{Measure: "eff_split_n8", Kind: MinBudget, Bound: 0.6},
			{Measure: "gain_vs_cluster_n8", Kind: MinBudget, Bound: 1.05},
		},
	}
	e.Run = func(o Options) (Document, error) {
		cfg := CIProfile()
		counts := fig8NodeCounts()
		scen, err := bench.Fig8Grid(cfg, counts).Scenarios()
		if err != nil {
			return Document{}, err
		}
		res, err := bench.Fig8From(counts, sweep.Run(scen, sweepOpts(o)))
		if err != nil {
			return Document{}, fmt.Errorf("exp: fig8: %w", err)
		}
		last := len(res.Points) - 1
		measures := map[string]float64{
			"split_makespan_n8_s":   res.Points[last].Split.Makespan.Seconds(),
			"cluster_makespan_n8_s": res.Points[last].Cluster.Makespan.Seconds(),
			"booster_makespan_n8_s": res.Points[last].Booster.Makespan.Seconds(),
			"eff_cluster_n8":        res.Efficiency(xpic.ClusterOnly, last),
			"eff_booster_n8":        res.Efficiency(xpic.BoosterOnly, last),
			"eff_split_n8":          res.Efficiency(xpic.SplitCB, last),
			"gain_vs_cluster_n8":    res.GainVsCluster(last),
			"gain_vs_booster_n8":    res.GainVsBooster(last),
		}
		return e.document(profileMeta(cfg, e.Profile), measures, res)
	}
	e.Render = func(d Document) (string, error) {
		res, err := parsePayload[bench.Fig8Result](d)
		if err != nil {
			return "", err
		}
		return bench.RenderFig8(res), nil
	}
	Register(e)
}

// strongScaling is one beyond-prototype strong-scaling study: Booster-only
// vs C+B at each node count on one pinned workload. Its efficiencies are
// normalised to the first count, the classic strong-scaling presentation.
type strongScaling struct {
	name, title string
	// workload names the pinned workload variant; the profile is "ci-" + it.
	workload string
	config   func() xpic.Config
	counts   []int
	budgets  []Budget
}

// registerStrongScaling registers one strong-scaling study as a raw
// result-set experiment with per-count makespans, efficiencies and gains.
func registerStrongScaling(s strongScaling) {
	counts := make([]string, len(s.counts))
	for i, n := range s.counts {
		counts[i] = fmt.Sprint(n)
	}
	profile := "ci-" + s.workload
	e := Experiment{
		Name:    s.name,
		Title:   s.title,
		Version: 1,
		Grid: fmt.Sprintf("%d node counts (%s) x 2 execution modes (Booster, C+B), pinned %s workload",
			len(s.counts), strings.Join(counts, ","), s.workload),
		Profile:   profile,
		Tolerance: map[string]float64{"*": 0.02},
		Budgets:   s.budgets,
	}
	cfg := s.config()
	grid := sweep.Grid{
		Name:       s.name,
		NodeCounts: s.counts,
		Modes:      []xpic.Mode{xpic.BoosterOnly, xpic.SplitCB},
		Workloads:  []sweep.WorkloadVariant{{Name: s.workload, Config: cfg}},
	}
	registerResultSet(e, grid.Scenarios, func(rs sweep.ResultSet) (map[string]string, map[string]float64) {
		b0, s0 := modePair(rs, 0)
		n0 := float64(s.counts[0])
		measures := map[string]float64{}
		for i, n := range s.counts {
			b, sp := modePair(rs, i)
			measures[fmt.Sprintf("booster_makespan_n%d_s", n)] = b
			measures[fmt.Sprintf("split_makespan_n%d_s", n)] = sp
			measures[fmt.Sprintf("eff_booster_n%d", n)] = b0 * n0 / (b * float64(n))
			measures[fmt.Sprintf("eff_split_n%d", n)] = s0 * n0 / (sp * float64(n))
			measures[fmt.Sprintf("gain_vs_booster_n%d", n)] = b / sp
		}
		return profileMeta(cfg, profile), measures
	})
}

// registerFig8Scale registers the beyond-prototype continuation of Fig. 8:
// Cluster+Booster vs Booster-only at 16 to 1024 nodes per solver, on the
// pinned ScaleProfile workload (the grid only decomposes for
// NY % 1024 == 0).
func registerFig8Scale() {
	registerStrongScaling(strongScaling{
		name:     "fig8-scale",
		title:    "Beyond the prototype: C+B vs Booster-only strong scaling to n=1024",
		workload: "scale",
		config:   ScaleProfile,
		counts:   []int{16, 64, 256, 1024},
		// Strong scaling at 2 rows per rank is brutally communication-bound,
		// and the fixed MPI_Comm_spawn cost cannot amortise over 8 reduced
		// steps — so C+B honestly loses to Booster-only here (gain < 1), the
		// same efficiency erosion Fig. 8 shows, extrapolated. The budgets pin
		// that measured behaviour as a regression floor: a kernel or model
		// change that degrades the n=1024 point past these bounds fails diff
		// even after a bless. (The weak-scaling sweep shows the flip side:
		// with constant per-rank work the split holds its efficiency.)
		budgets: []Budget{
			{Measure: "eff_split_n1024", Kind: MinBudget, Bound: 0.015},
			{Measure: "gain_vs_booster_n1024", Kind: MinBudget, Bound: 0.2},
			{Measure: "split_makespan_n1024_s", Kind: MaxBudget, Bound: 0.04},
		},
	})
}

// Scale4096Profile returns the workload of the fig8-scale4096 study: the
// ScaleProfile geometry stretched to 8192 rows, so the grid decomposes down
// to the 2-rows-per-rank floor at n = 4096 — the same per-rank regime the
// fig8-scale series ends in at n = 1024, pushed another 4x. Steps and CG
// budget are trimmed so the ~5M-event n=4096 scenarios replay in CI seconds.
func Scale4096Profile() xpic.Config {
	cfg := ScaleProfile()
	cfg.NY = 8192
	cfg.Steps = 4
	cfg.CGMaxIter = 8
	cfg.DiagEvery = 2
	return cfg
}

// registerFig8Scale4096 registers the n=4096 extension of the fig8-scale
// study: Booster-only vs C+B at 1024 and 4096 ranks per solver on the
// stretched workload. It is a separate experiment (rather than a fifth
// fig8-scale point) so the fig8-scale golden stays byte-identical; the
// n=1024 point inside THIS profile is the efficiency reference. The C+B
// scenario at n=4096 runs 8193 tasks on one kernel — the event queue holds
// thousands of pending wakeups, where the queue's per-push cost shows.
func registerFig8Scale4096() {
	registerStrongScaling(strongScaling{
		name:     "fig8-scale4096",
		title:    "Beyond the prototype, 4x further: C+B vs Booster-only at n=4096",
		workload: "scale4096",
		config:   Scale4096Profile,
		counts:   []int{1024, 4096},
		// Strong scaling at the 2-rows-per-rank floor is communication-bound
		// and the fixed MPI_Comm_spawn cost dominates 4 trimmed steps
		// outright (split makespans are ~26 ms of which 25 ms is spawn), so
		// C+B loses to Booster-only here even harder than fig8-scale shows
		// at n=1024. Measured: booster 2.87 ms / split 26.6 ms at n=4096,
		// eff_split 0.249, gain 0.108. The bounds pin that behaviour as a
		// regression floor.
		budgets: []Budget{
			{Measure: "eff_split_n4096", Kind: MinBudget, Bound: 0.15},
			{Measure: "gain_vs_booster_n4096", Kind: MinBudget, Bound: 0.08},
			{Measure: "split_makespan_n4096_s", Kind: MaxBudget, Bound: 0.035},
			{Measure: "booster_makespan_n4096_s", Kind: MaxBudget, Bound: 0.005},
		},
	})
}

// Scale16384Profile returns the workload of the fig8-scale16384 study: the
// Scale4096Profile geometry stretched again to 32768 rows, so the grid
// decomposes to the 2-rows-per-rank floor at n = 16384 — another 4x past
// fig8-scale4096. Steps and CG budget are trimmed to the minimum that still
// exercises the full step pipeline, because the C+B point runs 32769 tasks
// on one kernel.
func Scale16384Profile() xpic.Config {
	cfg := Scale4096Profile()
	cfg.NY = 32768
	cfg.Steps = 2
	cfg.CGMaxIter = 4
	cfg.DiagEvery = 1
	return cfg
}

// registerFig8Scale16384 registers the n=16384 extension of the fig8-scale
// family: Booster-only vs C+B at 4096 and 16384 ranks per solver on the
// stretched workload. As with fig8-scale4096 it is a separate experiment so
// the earlier goldens stay byte-identical, and the n=4096 point inside THIS
// profile is the efficiency reference.
func registerFig8Scale16384() {
	registerStrongScaling(strongScaling{
		name:     "fig8-scale16384",
		title:    "Beyond the prototype, 16x further: C+B vs Booster-only at n=16384",
		workload: "scale16384",
		config:   Scale16384Profile,
		counts:   []int{4096, 16384},
		// Same regime as fig8-scale4096, 4x further: strong scaling at the
		// 2-rows-per-rank floor is communication-bound and the fixed
		// MPI_Comm_spawn cost dominates 2 trimmed steps outright, so C+B
		// loses to Booster-only. The bounds pin the measured behaviour as a
		// regression floor.
		budgets: []Budget{
			{Measure: "eff_split_n16384", Kind: MinBudget, Bound: 0.15},
			{Measure: "gain_vs_booster_n16384", Kind: MinBudget, Bound: 0.03},
			{Measure: "split_makespan_n16384_s", Kind: MaxBudget, Bound: 0.035},
			{Measure: "booster_makespan_n16384_s", Kind: MaxBudget, Bound: 0.003},
		},
	})
}

// registerSweepXPicWeak registers the weak-scaling grid: a constant slab per
// rank while the machine grows, Booster-only and C+B. Under ideal weak
// scaling the makespan stays flat; the budget bounds how much the growing
// halo/collective traffic may erode it.
func registerSweepXPicWeak() {
	counts := []int{4, 16, 64, 256}
	e := Experiment{
		Name:      "sweep/xpic-weak",
		Title:     "Raw sweep: xPic weak scaling (constant 8x32-cell slab per rank)",
		Version:   1,
		Grid:      "4 node counts (4,16,64,256) x 2 execution modes (Booster, C+B), per-rank workload constant",
		Profile:   "ci-scale",
		Tolerance: map[string]float64{"*": 0.02},
		// Measured at ci-scale: the split mode holds ~95 % weak efficiency at
		// n=256 (the spawn cost amortises and per-rank work is constant)
		// while Booster-only erodes to ~62 % under the growing collectives —
		// the weak-scaling argument for the Cluster-Booster architecture.
		Budgets: []Budget{
			{Measure: "weak_eff_split_n256", Kind: MinBudget, Bound: 0.85},
			{Measure: "weak_eff_booster_n256", Kind: MinBudget, Bound: 0.5},
			{Measure: "max_makespan_s", Kind: MaxBudget, Bound: 0.05},
		},
	}
	registerResultSet(e, func() ([]sweep.Scenario, error) {
		var scen []sweep.Scenario
		for _, n := range counts {
			for _, mode := range []xpic.Mode{xpic.BoosterOnly, xpic.SplitCB} {
				p := sweep.XPicPoint{NodesPerSolver: n, Mode: mode, Workload: weakProfile(n)}
				scen = append(scen, p.Scenario(fmt.Sprintf("weak/n=%d/%s", n, mode)))
			}
		}
		return scen, nil
	}, func(rs sweep.ResultSet) (map[string]string, map[string]float64) {
		measures := sweepMeasures(rs)
		b0, s0 := modePair(rs, 0)
		for i, n := range counts {
			b, s := modePair(rs, i)
			// Weak-scaling efficiency: T(n0) / T(n) per mode.
			measures[fmt.Sprintf("weak_eff_booster_n%d", n)] = b0 / b
			measures[fmt.Sprintf("weak_eff_split_n%d", n)] = s0 / s
		}
		return map[string]string{"profile": e.Profile}, measures
	})
}

func registerSweepFig3() {
	registerSweep(Experiment{
		Name:    "sweep/fig3",
		Title:   "Raw sweep: Fig. 3 measurement grid as a sweep result set",
		Version: 1,
		Grid:    "25 message sizes x 3 node-type pairs",
		Profile: "paper",
		Tolerance: map[string]float64{
			"bandwidth_MBs": 0.05, "latency_us": 0.05,
			"max_bandwidth_MBs": 0.05, "max_latency_us": 0.05,
		},
		// The 16 MiB message dominates max_latency_us (~1.5 ms on the
		// ~11 GB/s converged links).
		Budgets: []Budget{
			{Measure: "max_latency_us", Kind: MaxBudget, Bound: 2000},
		},
	}, func() ([]sweep.Scenario, error) {
		return bench.Fig3Scenarios(bench.Fig3Sizes()), nil
	})
}

func registerSweepFig7() {
	registerSweep(Experiment{
		Name:      "sweep/fig7",
		Title:     "Raw sweep: Fig. 7 grid through the sweep engine",
		Version:   1,
		Grid:      "1 node per solver x 3 execution modes",
		Profile:   "ci-quick",
		Tolerance: map[string]float64{"*": 0.02},
		// Cluster-only at n=1 is the slowest scenario: 2.70 virtual s.
		Budgets: []Budget{
			{Measure: "max_makespan_s", Kind: MaxBudget, Bound: 3.2},
		},
	}, bench.Fig7Grid(CIProfile()).Scenarios)
}

func registerSweepFig8() {
	registerSweep(Experiment{
		Name:      "sweep/fig8",
		Title:     "Raw sweep: Fig. 8 strong-scaling grid through the sweep engine",
		Version:   1,
		Grid:      "4 node counts (1,2,4,8) x 3 execution modes",
		Profile:   "ci-quick",
		Tolerance: map[string]float64{"*": 0.02},
		// The n=1 Cluster-only point is the slowest scenario: 2.70 virtual s.
		Budgets: []Budget{
			{Measure: "max_makespan_s", Kind: MaxBudget, Bound: 3.2},
		},
	}, bench.Fig8Grid(CIProfile(), fig8NodeCounts()).Scenarios)
}

func registerSweepPaper() {
	registerSweep(Experiment{
		Name:      "sweep/paper",
		Title:     "Raw sweep: full evaluation grid with the SCR checkpoint axis",
		Version:   1,
		Grid:      "4 node counts x 3 modes x 3 SCR levels (local, buddy, global)",
		Profile:   "ci-quick",
		Tolerance: map[string]float64{"*": 0.02},
		// Measured at ci-quick: max makespan 2.70 virtual s, max checkpoint
		// cost 0.67 ms (global level included).
		Budgets: []Budget{
			{Measure: "max_makespan_s", Kind: MaxBudget, Bound: 3.2},
			{Measure: "max_checkpoint_s", Kind: MaxBudget, Bound: 0.01},
		},
	}, bench.PaperGrid(CIProfile()).Scenarios)
}
