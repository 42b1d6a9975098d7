// The paper artifacts: for every table and figure of the paper's evaluation
// (Tables I and II, Figs. 7 and 8 here, Fig. 3 in fig3.go) the scenario
// grid, the reassembly of a finished sweep into the rows or series the paper
// reports, and a text render next to the paper's reference values, which
// close this file.
package exp

import (
	"fmt"
	"strings"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/scr"
	"clusterbooster/internal/sweep"
	"clusterbooster/internal/xpic"
)

// allModes lists the three execution scenarios of §IV-C in figure order.
func allModes() []xpic.Mode {
	return []xpic.Mode{xpic.ClusterOnly, xpic.BoosterOnly, xpic.SplitCB}
}

// table1Row is one row of Table I (hardware configuration).
type table1Row struct {
	Feature string `json:"feature"`
	Cluster string `json:"cluster"`
	Booster string `json:"booster"`
}

// table1 reproduces Table I from the machine and fabric models.
func table1() []table1Row {
	c, b := machine.ClusterNode(), machine.BoosterNode()
	sys := machine.Prototype()
	gb := func(v int64) string { return fmt.Sprintf("%d GB", v>>30) }
	return []table1Row{
		{"Processor", c.Processor, b.Processor},
		{"Microarchitecture", c.Arch.String(), b.Arch.String()},
		{"Sockets per node", fmt.Sprint(c.Sockets), fmt.Sprint(b.Sockets)},
		{"Cores per node", fmt.Sprint(c.Cores), fmt.Sprint(b.Cores)},
		{"Threads per node", fmt.Sprint(c.Threads), fmt.Sprint(b.Threads)},
		{"Frequency", fmt.Sprintf("%.1f GHz", c.FreqGHz), fmt.Sprintf("%.1f GHz", b.FreqGHz)},
		{"Memory (RAM)", gb(c.RAMBytes), fmt.Sprintf("%s MCDRAM + %s DDR4", gb(b.MCDRAMBytes), gb(b.RAMBytes))},
		{"NVMe capacity", "400 GB", "400 GB"},
		{"Interconnect", "EXTOLL Tourmalet A3", "EXTOLL Tourmalet A3"},
		{"Max. link bandwidth", fmt.Sprintf("%.0f Gbit/s", c.LinkGbits), fmt.Sprintf("%.0f Gbit/s", b.LinkGbits)},
		{"MPI latency", c.MPIBaseLatency.String(), b.MPIBaseLatency.String()},
		{"Node count", fmt.Sprint(machine.PrototypeNodeCount(machine.Cluster)), fmt.Sprint(machine.PrototypeNodeCount(machine.Booster))},
		{"Peak performance", fmt.Sprintf("%.0f TFlop/s", sys.TotalPeakTFlops(machine.Cluster)), fmt.Sprintf("%.0f TFlop/s", sys.TotalPeakTFlops(machine.Booster))},
	}
}

// renderTable1Rows renders previously generated Table I rows as text.
func renderTable1Rows(rows []table1Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table I: Hardware configuration of the DEEP-ER prototype\n")
	fmt.Fprintf(&sb, "%-22s | %-24s | %-28s\n", "Feature", "Cluster", "Booster")
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", 80))
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-22s | %-24s | %-28s\n", r.Feature, r.Cluster, r.Booster)
	}
	return sb.String()
}

// table2Row is one setting of Table II (experiment setup).
type table2Row struct {
	Setting string `json:"setting"`
	Value   string `json:"value"`
}

// table2Rows reproduces Table II for a config as structured rows.
func table2Rows(cfg xpic.Config) []table2Row {
	return []table2Row{
		{"Number of cells per node", fmt.Sprintf("%d (grid %dx%d)", cfg.Cells(), cfg.NX, cfg.NY)},
		{"Number of particles per cell", fmt.Sprint(cfg.PPC)},
		{"Compilation flags", "-openmp, -mavx (Cluster), -xMIC-AVX512 (Booster)"},
		{"Time steps", fmt.Sprint(cfg.Steps)},
		{"Species", fmt.Sprint(len(cfg.Species))},
	}
}

// renderTable2Rows renders previously generated Table II rows as text.
func renderTable2Rows(rows []table2Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table II: xPic experiment setup\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-34s %s\n", r.Setting, r.Value)
	}
	return sb.String()
}

// fig7Result holds the three single-node scenarios of Fig. 7.
type fig7Result struct {
	Cluster xpic.Report `json:"cluster"`
	Booster xpic.Report `json:"booster"`
	Split   xpic.Report `json:"split"`
}

// fieldAdvantage returns how much faster the field solver is on the Cluster.
func (r fig7Result) fieldAdvantage() float64 {
	return r.Booster.FieldTime.Seconds() / r.Cluster.FieldTime.Seconds()
}

// particleAdvantage returns how much faster the particle solver is on the
// Booster.
func (r fig7Result) particleAdvantage() float64 {
	return r.Cluster.ParticleTime.Seconds() / r.Booster.ParticleTime.Seconds()
}

// gainVsCluster returns the C+B speed-up over Cluster-only.
func (r fig7Result) gainVsCluster() float64 {
	return r.Cluster.Makespan.Seconds() / r.Split.Makespan.Seconds()
}

// gainVsBooster returns the C+B speed-up over Booster-only.
func (r fig7Result) gainVsBooster() float64 {
	return r.Booster.Makespan.Seconds() / r.Split.Makespan.Seconds()
}

// fig7Grid declares the Fig. 7 study as a sweep grid: the three execution
// modes on one node per solver. Each scenario boots a fresh system
// (independent fabric state), as consecutive batch jobs on the prototype
// would see.
func fig7Grid(cfg xpic.Config) sweep.Grid {
	return sweep.Grid{
		Name:       "fig7",
		NodeCounts: []int{1},
		Modes:      allModes(),
		Workloads:  []sweep.WorkloadVariant{{Config: cfg}},
	}
}

// fig7From reassembles the Fig. 7 result from a sweep over
// fig7Grid(cfg).Scenarios().
func fig7From(rs sweep.ResultSet) (fig7Result, error) {
	var out fig7Result
	if err := rs.FirstError(); err != nil {
		return out, err
	}
	if rs.Scenarios != len(allModes()) {
		return out, fmt.Errorf("%d results for %d grid points", rs.Scenarios, len(allModes()))
	}
	// Grid order: modes innermost-to-outermost as declared in fig7Grid.
	out.Cluster = *rs.Results[0].XPic
	out.Booster = *rs.Results[1].XPic
	out.Split = *rs.Results[2].XPic
	return out, nil
}

// renderFig7 renders the Fig. 7 bars and derived ratios next to the paper's.
func renderFig7(r fig7Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 7: xPic runtime on one node per solver [s]\n")
	fmt.Fprintf(&sb, "%-10s %10s %10s %10s\n", "", "Fields", "Particles", "Total")
	for _, rep := range []xpic.Report{r.Cluster, r.Booster, r.Split} {
		fmt.Fprintf(&sb, "%-10s %10.2f %10.2f %10.2f\n",
			rep.Mode, rep.FieldTime.Seconds(), rep.ParticleTime.Seconds(), rep.Makespan.Seconds())
	}
	fmt.Fprintf(&sb, "\n%-34s %8s %8s\n", "Derived quantity", "ours", "paper")
	fmt.Fprintf(&sb, "%-34s %8.2f %8.2f\n", "Field solver: Cluster advantage", r.fieldAdvantage(), paperFig7.fieldAdvantage)
	fmt.Fprintf(&sb, "%-34s %8.2f %8.2f\n", "Particle solver: Booster advantage", r.particleAdvantage(), paperFig7.particleAdvantage)
	fmt.Fprintf(&sb, "%-34s %8.2f %8.2f\n", "C+B gain vs Cluster", r.gainVsCluster(), paperFig7.gainVsCluster)
	fmt.Fprintf(&sb, "%-34s %8.2f %8.2f\n", "C+B gain vs Booster", r.gainVsBooster(), paperFig7.gainVsBooster)
	fmt.Fprintf(&sb, "%-34s %7.1f%% %8s\n", "Coupling overhead (C+B)", 100*r.Split.OverheadFraction(), "3-4%")
	return sb.String()
}

// fig8Point is one x-axis position of Fig. 8.
type fig8Point struct {
	Nodes   int         `json:"nodes"`
	Cluster xpic.Report `json:"cluster"`
	Booster xpic.Report `json:"booster"`
	Split   xpic.Report `json:"split"`
}

// fig8Result is the full scaling series.
type fig8Result struct {
	Points []fig8Point `json:"points"`
}

// fig8Grid declares the strong-scaling study of Fig. 8 as a sweep grid: the
// Table II problem at each node count, in all three modes.
func fig8Grid(cfg xpic.Config, nodeCounts []int) sweep.Grid {
	return sweep.Grid{
		Name:       "fig8",
		NodeCounts: nodeCounts,
		Modes:      allModes(),
		Workloads:  []sweep.WorkloadVariant{{Config: cfg}},
	}
}

// fig8From reassembles the Fig. 8 series from a sweep over
// fig8Grid(cfg, nodeCounts).Scenarios().
func fig8From(nodeCounts []int, rs sweep.ResultSet) (fig8Result, error) {
	var out fig8Result
	if err := rs.FirstError(); err != nil {
		return out, err
	}
	modes := len(allModes())
	if rs.Scenarios != len(nodeCounts)*modes {
		return out, fmt.Errorf("%d results for %d grid points", rs.Scenarios, len(nodeCounts)*modes)
	}
	// Grid order: node counts outermost, modes in allModes order within.
	for i, n := range nodeCounts {
		out.Points = append(out.Points, fig8Point{
			Nodes:   n,
			Cluster: *rs.Results[i*modes+0].XPic,
			Booster: *rs.Results[i*modes+1].XPic,
			Split:   *rs.Results[i*modes+2].XPic,
		})
	}
	return out, nil
}

// efficiency returns the parallel efficiency of a mode at point i relative
// to the 1-node point: T(1) / (N · T(N)).
func (r fig8Result) efficiency(mode xpic.Mode, i int) float64 {
	t1 := r.report(mode, 0).Makespan.Seconds()
	pt := r.Points[i]
	tn := r.report(mode, i).Makespan.Seconds()
	return t1 / (float64(pt.Nodes) * tn)
}

func (r fig8Result) report(mode xpic.Mode, i int) xpic.Report {
	switch mode {
	case xpic.ClusterOnly:
		return r.Points[i].Cluster
	case xpic.BoosterOnly:
		return r.Points[i].Booster
	default:
		return r.Points[i].Split
	}
}

// gainVsCluster returns the C+B speed-up over Cluster-only at point i.
func (r fig8Result) gainVsCluster(i int) float64 {
	return r.Points[i].Cluster.Makespan.Seconds() / r.Points[i].Split.Makespan.Seconds()
}

// gainVsBooster returns the C+B speed-up over Booster-only at point i.
func (r fig8Result) gainVsBooster(i int) float64 {
	return r.Points[i].Booster.Makespan.Seconds() / r.Points[i].Split.Makespan.Seconds()
}

// renderFig8 renders the scaling plot data (runtime and efficiency).
func renderFig8(r fig8Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 8: xPic strong scaling (runtime [s] and parallel efficiency)\n")
	fmt.Fprintf(&sb, "%-6s | %9s %9s %9s | %7s %7s %7s | %8s %8s\n",
		"Nodes", "Cluster", "Booster", "C+B", "eff(C)", "eff(B)", "eff(C+B)", "C+B/C", "C+B/B")
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", 96))
	for i, pt := range r.Points {
		fmt.Fprintf(&sb, "%-6d | %9.2f %9.2f %9.2f | %6.1f%% %6.1f%% %6.1f%% | %8.2f %8.2f\n",
			pt.Nodes,
			pt.Cluster.Makespan.Seconds(), pt.Booster.Makespan.Seconds(), pt.Split.Makespan.Seconds(),
			100*r.efficiency(xpic.ClusterOnly, i), 100*r.efficiency(xpic.BoosterOnly, i),
			100*r.efficiency(xpic.SplitCB, i),
			r.gainVsCluster(i), r.gainVsBooster(i))
	}
	last := len(r.Points) - 1
	fmt.Fprintf(&sb, "\n%-40s %8s %8s\n", "At the largest scale", "ours", "paper")
	fmt.Fprintf(&sb, "%-40s %8.2f %8.2f\n", "C+B gain vs Cluster", r.gainVsCluster(last), paperFig8.gainVsCluster)
	fmt.Fprintf(&sb, "%-40s %8.2f %8.2f\n", "C+B gain vs Booster", r.gainVsBooster(last), paperFig8.gainVsBooster)
	fmt.Fprintf(&sb, "%-40s %7.1f%% %7.1f%%\n", "Parallel efficiency C+B", 100*r.efficiency(xpic.SplitCB, last), 100*paperFig8.effSplit)
	fmt.Fprintf(&sb, "%-40s %7.1f%% %7.1f%%\n", "Parallel efficiency Cluster", 100*r.efficiency(xpic.ClusterOnly, last), 100*paperFig8.effCluster)
	fmt.Fprintf(&sb, "%-40s %7.1f%% %7.1f%%\n", "Parallel efficiency Booster", 100*r.efficiency(xpic.BoosterOnly, last), 100*paperFig8.effBooster)
	return sb.String()
}

// paperGrid declares the paper's full evaluation space as one sweep: the
// workload at every Fig. 8 node count in all three modes (Fig. 7 is the
// n=1 slice, the Table II setup parameterises the workload), multiplied by
// the DEEP-ER resiliency axis (SCR levels).
func paperGrid(cfg xpic.Config) sweep.Grid {
	return sweep.Grid{
		Name:       "paper",
		NodeCounts: []int{1, 2, 4, 8},
		Modes:      allModes(),
		Workloads:  []sweep.WorkloadVariant{{Name: "table2", Config: cfg}},
		SCRs: []sweep.SCRVariant{
			{Name: "scr=local", Spec: sweep.CheckpointAt(scr.LevelLocal)},
			{Name: "scr=buddy", Spec: sweep.CheckpointAt(scr.LevelBuddy)},
			{Name: "scr=global", Spec: sweep.CheckpointAt(scr.LevelGlobal)},
		},
	}
}

// Reference values extracted from the paper (§IV-C and Figs. 3, 7, 8), used
// by the renderers and by the shape-assertion tests: the reproduction is
// expected to match these in *shape* (who wins, by what factor), not in
// absolute seconds.

// paperFig7 holds the single-node statements of §IV-C.
var paperFig7 = struct {
	fieldAdvantage    float64 // field solver 6× faster on the Cluster
	particleAdvantage float64 // particle solver 1.35× faster on the Booster
	gainVsCluster     float64 // C+B 1.28× faster than Cluster-only
	gainVsBooster     float64 // C+B 1.21× faster than Booster-only
}{
	fieldAdvantage:    6.0,
	particleAdvantage: 1.35,
	gainVsCluster:     1.28,
	gainVsBooster:     1.21,
}

// paperFig8 holds the 8-nodes-per-solver statements of §IV-C.
var paperFig8 = struct {
	gainVsCluster float64 // 1.38× at 8 nodes
	gainVsBooster float64 // 1.34× at 8 nodes
	effSplit      float64 // 85 % parallel efficiency (C+B)
	effCluster    float64 // 79 %
	effBooster    float64 // 77 %
}{
	gainVsCluster: 1.38,
	gainVsBooster: 1.34,
	effSplit:      0.85,
	effCluster:    0.79,
	effBooster:    0.77,
}

// paperFig3 holds the fabric statements of §II-B / Fig. 3.
var paperFig3 = struct {
	latencyCNCNus float64 // 1.0 µs CN-CN (Table I)
	latencyBNBNus float64 // 1.8 µs BN-BN (Table I)
}{
	latencyCNCNus: 1.0,
	latencyBNBNus: 1.8,
}
