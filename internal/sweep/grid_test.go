package sweep

import (
	"strings"
	"testing"

	"clusterbooster/internal/scr"
	"clusterbooster/internal/xpic"
)

func TestGridValidate(t *testing.T) {
	ok := testGrid()
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Grid)
	}{
		{"no node counts", func(g *Grid) { g.NodeCounts = nil }},
		{"bad node count", func(g *Grid) { g.NodeCounts = []int{2, 0} }},
		{"no modes", func(g *Grid) { g.Modes = nil }},
		{"no workloads", func(g *Grid) { g.Workloads = nil }},
	}
	for _, c := range cases {
		g := testGrid()
		c.mut(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil", c.name)
		}
		if _, err := g.Scenarios(); err == nil {
			t.Errorf("%s: Scenarios() = nil error", c.name)
		}
	}
}

// TestGridExpansion checks size, deterministic order and unique names of the
// cross product, including the optional axes.
func TestGridExpansion(t *testing.T) {
	g := testGrid()
	g.SCRs = []SCRVariant{
		{Name: "scr=none"},
		{Name: "scr=local", Spec: CheckpointAt(scr.LevelLocal)},
	}
	want := 2 * 3 * 2 * 2
	if g.Size() != want {
		t.Fatalf("Size() = %d, want %d", g.Size(), want)
	}
	scenarios, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != want {
		t.Fatalf("%d scenarios, want %d", len(scenarios), want)
	}
	seen := map[string]bool{}
	for _, s := range scenarios {
		if seen[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Run == nil {
			t.Errorf("scenario %q has no run function", s.Name)
		}
	}
	if got := scenarios[0].Name; got != "test/n=1/Cluster/s3/scr=none" {
		t.Errorf("first scenario name %q", got)
	}
	last := scenarios[len(scenarios)-1].Name
	if last != "test/n=4/C+B/s5/scr=local" {
		t.Errorf("last scenario name %q", last)
	}
	// Re-expansion yields the same order.
	again, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	for i := range scenarios {
		if scenarios[i].Name != again[i].Name {
			t.Fatalf("expansion order unstable at %d: %q vs %q", i, scenarios[i].Name, again[i].Name)
		}
	}
}

// TestCheckpointAt checks the cadence config matches the requested levels
// and that the mandatory local base level is always present exactly once.
func TestCheckpointAt(t *testing.T) {
	local := CheckpointAt(scr.LevelLocal)
	if local.Config.BuddyEvery != 0 || local.Config.GlobalEvery != 0 {
		t.Errorf("local spec config %+v", local.Config)
	}
	if len(local.Levels) != 1 || local.Levels[0] != scr.LevelLocal {
		t.Errorf("local spec levels %v", local.Levels)
	}
	buddy := CheckpointAt(scr.LevelBuddy)
	if len(buddy.Levels) != 2 || buddy.Levels[0] != scr.LevelLocal || buddy.Levels[1] != scr.LevelBuddy {
		t.Errorf("buddy spec levels %v: local base must be included", buddy.Levels)
	}
	all := CheckpointAt(scr.LevelLocal, scr.LevelBuddy, scr.LevelGlobal)
	if all.Config.BuddyEvery != 1 || all.Config.GlobalEvery != 1 {
		t.Errorf("all-levels spec config %+v", all.Config)
	}
	if len(all.Levels) != 3 {
		t.Errorf("%d levels: %v", len(all.Levels), all.Levels)
	}
}

// TestSCRCheckpointMetric runs a small grid with the checkpoint axis and
// checks the "checkpoint_s" metric exists and orders local < global (the
// SCR level-cost hierarchy) at every grid point.
func TestSCRCheckpointMetric(t *testing.T) {
	g := Grid{
		Name:       "ckpt",
		NodeCounts: []int{2},
		Modes:      []xpic.Mode{xpic.SplitCB},
		Workloads:  []WorkloadVariant{{Config: xpic.QuickConfig(3)}},
		SCRs: []SCRVariant{
			{Name: "scr=local", Spec: CheckpointAt(scr.LevelLocal)},
			{Name: "scr=global", Spec: CheckpointAt(scr.LevelGlobal)},
		},
	}
	scenarios, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	rs := Run(scenarios, Options{Workers: 2})
	if err := rs.FirstError(); err != nil {
		t.Fatal(err)
	}
	local := rs.Results[0].Metrics["checkpoint_s"]
	global := rs.Results[1].Metrics["checkpoint_s"]
	if local <= 0 || global <= 0 {
		t.Fatalf("checkpoint costs local=%v global=%v not positive", local, global)
	}
	if local >= global {
		t.Errorf("local checkpoint (%v s) not cheaper than global (%v s)", local, global)
	}
	// The checkpoint axis must not perturb the simulation itself.
	if rs.Results[0].XPic.Makespan != rs.Results[1].XPic.Makespan {
		t.Errorf("makespan differs across checkpoint variants: %v vs %v",
			rs.Results[0].XPic.Makespan, rs.Results[1].XPic.Makespan)
	}
}

// TestGridScenarioMetrics runs one grid point and checks the standard xPic
// metric set is complete and consistent with the attached report.
func TestGridScenarioMetrics(t *testing.T) {
	p := XPicPoint{NodesPerSolver: 1, Mode: xpic.SplitCB, Workload: xpic.QuickConfig(4)}
	out, err := p.Scenario("one").Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{
		"makespan_s", "field_s", "particle_s", "exchange_s", "aux_s",
		"overhead_frac", "cg_iters", "field_energy", "kinetic_energy",
	} {
		if _, ok := out.Metrics[k]; !ok {
			t.Errorf("metric %q missing", k)
		}
	}
	if out.XPic == nil {
		t.Fatal("no xPic report attached")
	}
	if out.Metrics["makespan_s"] != out.XPic.Makespan.Seconds() {
		t.Error("makespan metric disagrees with report")
	}
	if out.XPic.Mode != xpic.SplitCB {
		t.Errorf("report mode %v", out.XPic.Mode)
	}
}

// TestGridErrorSurfacesPerScenario: an invalid workload at one grid point
// fails that scenario only.
func TestGridErrorSurfacesPerScenario(t *testing.T) {
	bad := xpic.QuickConfig(3)
	bad.NY = 10 // not divisible by 4 ranks
	g := Grid{
		Name:       "mixed",
		NodeCounts: []int{1, 4},
		Modes:      []xpic.Mode{xpic.ClusterOnly},
		Workloads:  []WorkloadVariant{{Name: "bad10", Config: bad}},
	}
	scenarios, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	rs := Run(scenarios, Options{Workers: 2})
	if rs.Failures != 1 {
		t.Fatalf("failures = %d, want 1 (only n=4 divides badly): %+v", rs.Failures, rs.Results)
	}
	if rs.Results[0].Error != "" {
		t.Errorf("n=1 scenario failed: %s", rs.Results[0].Error)
	}
	if !strings.Contains(rs.Results[1].Error, "not divisible") {
		t.Errorf("n=4 error %q", rs.Results[1].Error)
	}
}

func TestJoinName(t *testing.T) {
	if got := joinName("a", "", "b", "", "c"); got != "a/b/c" {
		t.Errorf("joinName = %q", got)
	}
	if got := joinName("", ""); got != "" {
		t.Errorf("joinName of empties = %q", got)
	}
}

func TestGridSizeMatchesExpansion(t *testing.T) {
	for _, g := range []Grid{
		testGrid(),
		{Name: "x", NodeCounts: []int{1}, Modes: []xpic.Mode{xpic.ClusterOnly},
			Workloads: []WorkloadVariant{{Config: xpic.QuickConfig(2)}},
			SCRs:      []SCRVariant{{Name: "scr=none"}, {Name: "scr=local", Spec: CheckpointAt(scr.LevelLocal)}}},
	} {
		scenarios, err := g.Scenarios()
		if err != nil {
			t.Fatal(err)
		}
		if g.Size() != len(scenarios) {
			t.Errorf("grid %q: Size() = %d but %d scenarios", g.Name, g.Size(), len(scenarios))
		}
	}
}
