// Package bench holds the paper-artifact layer of the experiment registry:
// for every table and figure of the paper's evaluation it declares the
// scenario grid, reassembles a finished sweep into the rows/series the paper
// reports, and renders them next to the paper's reference values (recorded
// in paper.go). The runs themselves go through internal/exp, the one path
// from a scenario grid to a document.
package bench

import (
	"fmt"
	"strings"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/scr"
	"clusterbooster/internal/sweep"
	"clusterbooster/internal/vclock"
	"clusterbooster/internal/xpic"
)

// AllModes lists the three execution scenarios of §IV-C in figure order.
func AllModes() []xpic.Mode {
	return []xpic.Mode{xpic.ClusterOnly, xpic.BoosterOnly, xpic.SplitCB}
}

// Table1Row is one row of Table I (hardware configuration).
type Table1Row struct {
	Feature string `json:"feature"`
	Cluster string `json:"cluster"`
	Booster string `json:"booster"`
}

// Table1 reproduces Table I from the machine and fabric models.
func Table1() []Table1Row {
	c, b := machine.ClusterNode(), machine.BoosterNode()
	sys := machine.Prototype()
	gb := func(v int64) string { return fmt.Sprintf("%d GB", v>>30) }
	return []Table1Row{
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

// RenderTable1Rows renders previously generated Table I rows as text.
func RenderTable1Rows(rows []Table1Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table I: Hardware configuration of the DEEP-ER prototype\n")
	fmt.Fprintf(&sb, "%-22s | %-24s | %-28s\n", "Feature", "Cluster", "Booster")
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", 80))
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-22s | %-24s | %-28s\n", r.Feature, r.Cluster, r.Booster)
	}
	return sb.String()
}

// Table2Row is one setting of Table II (experiment setup).
type Table2Row struct {
	Setting string `json:"setting"`
	Value   string `json:"value"`
}

// Table2Rows reproduces Table II for a config as structured rows.
func Table2Rows(cfg xpic.Config) []Table2Row {
	return []Table2Row{
		{"Number of cells per node", fmt.Sprintf("%d (grid %dx%d)", cfg.Cells(), cfg.NX, cfg.NY)},
		{"Number of particles per cell", fmt.Sprint(cfg.PPC)},
		{"Compilation flags", "-openmp, -mavx (Cluster), -xMIC-AVX512 (Booster)"},
		{"Time steps", fmt.Sprint(cfg.Steps)},
		{"Species", fmt.Sprint(len(cfg.Species))},
	}
}

// RenderTable2Rows renders previously generated Table II rows as text.
func RenderTable2Rows(rows []Table2Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table II: xPic experiment setup\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-34s %s\n", r.Setting, r.Value)
	}
	return sb.String()
}

// Fig7Result holds the three single-node scenarios of Fig. 7.
type Fig7Result struct {
	Cluster xpic.Report `json:"cluster"`
	Booster xpic.Report `json:"booster"`
	Split   xpic.Report `json:"split"`
}

// FieldAdvantage returns how much faster the field solver is on the Cluster.
func (r Fig7Result) FieldAdvantage() float64 {
	return r.Booster.FieldTime.Seconds() / r.Cluster.FieldTime.Seconds()
}

// ParticleAdvantage returns how much faster the particle solver is on the
// Booster.
func (r Fig7Result) ParticleAdvantage() float64 {
	return r.Cluster.ParticleTime.Seconds() / r.Booster.ParticleTime.Seconds()
}

// GainVsCluster returns the C+B speed-up over Cluster-only.
func (r Fig7Result) GainVsCluster() float64 {
	return r.Cluster.Makespan.Seconds() / r.Split.Makespan.Seconds()
}

// GainVsBooster returns the C+B speed-up over Booster-only.
func (r Fig7Result) GainVsBooster() float64 {
	return r.Booster.Makespan.Seconds() / r.Split.Makespan.Seconds()
}

// Fig7Grid declares the Fig. 7 study as a sweep grid: the three execution
// modes on one node per solver. Each scenario boots a fresh system
// (independent fabric state), as consecutive batch jobs on the prototype
// would see.
func Fig7Grid(cfg xpic.Config) sweep.Grid {
	return sweep.Grid{
		Name:       "fig7",
		NodeCounts: []int{1},
		Modes:      AllModes(),
		Workloads:  []sweep.WorkloadVariant{{Config: cfg}},
	}
}

// Fig7From reassembles the Fig. 7 result from a sweep over
// Fig7Grid(cfg).Scenarios().
func Fig7From(rs sweep.ResultSet) (Fig7Result, error) {
	var out Fig7Result
	if err := rs.FirstError(); err != nil {
		return out, fmt.Errorf("bench: fig7: %w", err)
	}
	if rs.Scenarios != len(AllModes()) {
		return out, fmt.Errorf("bench: fig7: %d results for %d grid points", rs.Scenarios, len(AllModes()))
	}
	// Grid order: modes innermost-to-outermost as declared in Fig7Grid.
	out.Cluster = *rs.Results[0].XPic
	out.Booster = *rs.Results[1].XPic
	out.Split = *rs.Results[2].XPic
	return out, nil
}

// RenderFig7 renders the Fig. 7 bars and derived ratios next to the paper's.
func RenderFig7(r Fig7Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 7: xPic runtime on one node per solver [s]\n")
	fmt.Fprintf(&sb, "%-10s %10s %10s %10s\n", "", "Fields", "Particles", "Total")
	for _, rep := range []xpic.Report{r.Cluster, r.Booster, r.Split} {
		fmt.Fprintf(&sb, "%-10s %10.2f %10.2f %10.2f\n",
			rep.Mode, rep.FieldTime.Seconds(), rep.ParticleTime.Seconds(), rep.Makespan.Seconds())
	}
	fmt.Fprintf(&sb, "\n%-34s %8s %8s\n", "Derived quantity", "ours", "paper")
	fmt.Fprintf(&sb, "%-34s %8.2f %8.2f\n", "Field solver: Cluster advantage", r.FieldAdvantage(), PaperFig7.FieldAdvantage)
	fmt.Fprintf(&sb, "%-34s %8.2f %8.2f\n", "Particle solver: Booster advantage", r.ParticleAdvantage(), PaperFig7.ParticleAdvantage)
	fmt.Fprintf(&sb, "%-34s %8.2f %8.2f\n", "C+B gain vs Cluster", r.GainVsCluster(), PaperFig7.GainVsCluster)
	fmt.Fprintf(&sb, "%-34s %8.2f %8.2f\n", "C+B gain vs Booster", r.GainVsBooster(), PaperFig7.GainVsBooster)
	fmt.Fprintf(&sb, "%-34s %7.1f%% %8s\n", "Coupling overhead (C+B)", 100*r.Split.OverheadFraction(), "3-4%")
	return sb.String()
}

// Fig8Point is one x-axis position of Fig. 8.
type Fig8Point struct {
	Nodes   int         `json:"nodes"`
	Cluster xpic.Report `json:"cluster"`
	Booster xpic.Report `json:"booster"`
	Split   xpic.Report `json:"split"`
}

// Fig8Result is the full scaling series.
type Fig8Result struct {
	Points []Fig8Point `json:"points"`
}

// Fig8Grid declares the strong-scaling study of Fig. 8 as a sweep grid: the
// Table II problem at each node count, in all three modes.
func Fig8Grid(cfg xpic.Config, nodeCounts []int) sweep.Grid {
	return sweep.Grid{
		Name:       "fig8",
		NodeCounts: nodeCounts,
		Modes:      AllModes(),
		Workloads:  []sweep.WorkloadVariant{{Config: cfg}},
	}
}

// Fig8From reassembles the Fig. 8 series from a sweep over
// Fig8Grid(cfg, nodeCounts).Scenarios().
func Fig8From(nodeCounts []int, rs sweep.ResultSet) (Fig8Result, error) {
	var out Fig8Result
	if err := rs.FirstError(); err != nil {
		return out, fmt.Errorf("bench: fig8: %w", err)
	}
	modes := len(AllModes())
	if rs.Scenarios != len(nodeCounts)*modes {
		return out, fmt.Errorf("bench: fig8: %d results for %d grid points", rs.Scenarios, len(nodeCounts)*modes)
	}
	// Grid order: node counts outermost, modes in AllModes order within.
	for i, n := range nodeCounts {
		out.Points = append(out.Points, Fig8Point{
			Nodes:   n,
			Cluster: *rs.Results[i*modes+0].XPic,
			Booster: *rs.Results[i*modes+1].XPic,
			Split:   *rs.Results[i*modes+2].XPic,
		})
	}
	return out, nil
}

// Efficiency returns the parallel efficiency of a mode at point i relative
// to the 1-node point: T(1) / (N · T(N)).
func (r Fig8Result) Efficiency(mode xpic.Mode, i int) float64 {
	t1 := r.report(mode, 0).Makespan.Seconds()
	pt := r.Points[i]
	tn := r.report(mode, i).Makespan.Seconds()
	return t1 / (float64(pt.Nodes) * tn)
}

func (r Fig8Result) report(mode xpic.Mode, i int) xpic.Report {
	switch mode {
	case xpic.ClusterOnly:
		return r.Points[i].Cluster
	case xpic.BoosterOnly:
		return r.Points[i].Booster
	default:
		return r.Points[i].Split
	}
}

// GainVsCluster returns the C+B speed-up over Cluster-only at point i.
func (r Fig8Result) GainVsCluster(i int) float64 {
	return r.Points[i].Cluster.Makespan.Seconds() / r.Points[i].Split.Makespan.Seconds()
}

// GainVsBooster returns the C+B speed-up over Booster-only at point i.
func (r Fig8Result) GainVsBooster(i int) float64 {
	return r.Points[i].Booster.Makespan.Seconds() / r.Points[i].Split.Makespan.Seconds()
}

// RenderFig8 renders the scaling plot data (runtime and efficiency).
func RenderFig8(r Fig8Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 8: xPic strong scaling (runtime [s] and parallel efficiency)\n")
	fmt.Fprintf(&sb, "%-6s | %9s %9s %9s | %7s %7s %7s | %8s %8s\n",
		"Nodes", "Cluster", "Booster", "C+B", "eff(C)", "eff(B)", "eff(C+B)", "C+B/C", "C+B/B")
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", 96))
	for i, pt := range r.Points {
		fmt.Fprintf(&sb, "%-6d | %9.2f %9.2f %9.2f | %6.1f%% %6.1f%% %6.1f%% | %8.2f %8.2f\n",
			pt.Nodes,
			pt.Cluster.Makespan.Seconds(), pt.Booster.Makespan.Seconds(), pt.Split.Makespan.Seconds(),
			100*r.Efficiency(xpic.ClusterOnly, i), 100*r.Efficiency(xpic.BoosterOnly, i),
			100*r.Efficiency(xpic.SplitCB, i),
			r.GainVsCluster(i), r.GainVsBooster(i))
	}
	last := len(r.Points) - 1
	fmt.Fprintf(&sb, "\n%-40s %8s %8s\n", "At the largest scale", "ours", "paper")
	fmt.Fprintf(&sb, "%-40s %8.2f %8.2f\n", "C+B gain vs Cluster", r.GainVsCluster(last), PaperFig8.GainVsCluster)
	fmt.Fprintf(&sb, "%-40s %8.2f %8.2f\n", "C+B gain vs Booster", r.GainVsBooster(last), PaperFig8.GainVsBooster)
	fmt.Fprintf(&sb, "%-40s %7.1f%% %7.1f%%\n", "Parallel efficiency C+B", 100*r.Efficiency(xpic.SplitCB, last), 100*PaperFig8.EffSplit)
	fmt.Fprintf(&sb, "%-40s %7.1f%% %7.1f%%\n", "Parallel efficiency Cluster", 100*r.Efficiency(xpic.ClusterOnly, last), 100*PaperFig8.EffCluster)
	fmt.Fprintf(&sb, "%-40s %7.1f%% %7.1f%%\n", "Parallel efficiency Booster", 100*r.Efficiency(xpic.BoosterOnly, last), 100*PaperFig8.EffBooster)
	return sb.String()
}

// PaperGrid declares the paper's full evaluation space as one sweep: the
// workload at every Fig. 8 node count in all three modes (Fig. 7 is the
// n=1 slice, the Table II setup parameterises the workload), multiplied by
// the DEEP-ER resiliency axis (SCR levels).
func PaperGrid(cfg xpic.Config) sweep.Grid {
	return sweep.Grid{
		Name:       "paper",
		NodeCounts: []int{1, 2, 4, 8},
		Modes:      AllModes(),
		Workloads:  []sweep.WorkloadVariant{{Name: "table2", Config: cfg}},
		SCRs: []sweep.SCRVariant{
			{Name: "scr=local", Spec: sweep.CheckpointAt(scr.LevelLocal)},
			{Name: "scr=buddy", Spec: sweep.CheckpointAt(scr.LevelBuddy)},
			{Name: "scr=global", Spec: sweep.CheckpointAt(scr.LevelGlobal)},
		},
	}
}

// helper shared with fig3.go
func mbs(bytesPerSecond float64) float64 { return bytesPerSecond / 1e6 }

func us(t vclock.Time) float64 { return t.Micros() }
