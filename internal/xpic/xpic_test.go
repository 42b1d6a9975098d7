package xpic

import (
	"math"
	"testing"

	"clusterbooster/internal/fabric"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/psmpi"
	"clusterbooster/internal/vclock"
)

func newRuntime(c, b int) (*psmpi.Runtime, *machine.System) {
	sys := machine.New(c, b)
	return psmpi.NewRuntime(sys, fabric.New(sys), psmpi.Config{}), sys
}

// newRuntimeFastSpawn shrinks the spawn overhead so short test runs are not
// dominated by job startup (the real benches run hundreds of steps where the
// 25 ms spawn is negligible, as on the prototype).
func newRuntimeFastSpawn(c, b int) (*psmpi.Runtime, *machine.System) {
	sys := machine.New(c, b)
	return psmpi.NewRuntime(sys, fabric.New(sys),
		psmpi.Config{SpawnOverhead: vclock.Microsecond}), sys
}

func clusterNodes(sys *machine.System, n int) []*machine.Node {
	return sys.Module(machine.Cluster)[:n]
}

func boosterNodes(sys *machine.System, n int) []*machine.Node {
	return sys.Module(machine.Booster)[:n]
}

func TestConfigValidate(t *testing.T) {
	cfg := Table2Config()
	if err := cfg.Validate(1); err != nil {
		t.Fatalf("Table II config invalid: %v", err)
	}
	if err := cfg.Validate(8); err != nil {
		t.Fatalf("8-rank Table II config invalid: %v", err)
	}
	if err := cfg.Validate(7); err == nil {
		t.Error("indivisible decomposition accepted")
	}
	bad := cfg
	bad.PPC = 3
	if err := bad.Validate(1); err == nil {
		t.Error("PPC not divisible by species accepted")
	}
	bad = cfg
	bad.ParticleScale = 0
	if err := bad.Validate(1); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestTable2Numbers(t *testing.T) {
	cfg := Table2Config()
	if cfg.Cells() != 4096 {
		t.Errorf("cells = %d, want 4096 (Table II)", cfg.Cells())
	}
	if cfg.PPC != 2048 {
		t.Errorf("PPC = %d, want 2048 (Table II)", cfg.PPC)
	}
	if cfg.TotalParticles() != 4096*2048 {
		t.Errorf("total particles = %d", cfg.TotalParticles())
	}
}

func TestMonoRunsAndConservesCharge(t *testing.T) {
	rt, sys := newRuntime(2, 2)
	cfg := QuickConfig(10)
	rep, err := Run(rt, Spec{Mode: ClusterOnly, Nodes: clusterNodes(sys, 1), Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != ClusterOnly {
		t.Errorf("mode = %v", rep.Mode)
	}
	// Equal electron and ion macro-charge: total must vanish.
	if math.Abs(rep.TotalCharge) > 1e-9 {
		t.Errorf("net charge = %v, want 0", rep.TotalCharge)
	}
	if rep.Makespan <= 0 || rep.FieldTime <= 0 || rep.ParticleTime <= 0 {
		t.Errorf("degenerate report: %+v", rep)
	}
	if rep.CGIters < cfg.Steps {
		t.Errorf("CG iterations %d suspiciously low for %d steps", rep.CGIters, cfg.Steps)
	}
}

func TestEnergiesFiniteAndBounded(t *testing.T) {
	rt, sys := newRuntime(1, 0)
	cfg := QuickConfig(30)
	rep, err := Run(rt, Spec{Mode: ClusterOnly, Nodes: clusterNodes(sys, 1), Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(rep.FieldEnergy) || math.IsInf(rep.FieldEnergy, 0) {
		t.Fatalf("field energy = %v", rep.FieldEnergy)
	}
	if math.IsNaN(rep.KineticEnergy) || rep.KineticEnergy <= 0 {
		t.Fatalf("kinetic energy = %v", rep.KineticEnergy)
	}
	// A thermal plasma at rest must not blow up: field energy stays a small
	// fraction of kinetic energy (implicit scheme is damping).
	if rep.FieldEnergy > rep.KineticEnergy {
		t.Errorf("field energy %v exceeds kinetic %v: numerical instability",
			rep.FieldEnergy, rep.KineticEnergy)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := QuickConfig(8)
	run := func() Report {
		rt, sys := newRuntime(2, 0)
		rep, err := Run(rt, Spec{Mode: ClusterOnly, Nodes: clusterNodes(sys, 2), Cfg: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Checksum != b.Checksum {
		t.Errorf("checksums differ across identical runs: %v vs %v", a.Checksum, b.Checksum)
	}
	if a.Makespan != b.Makespan {
		t.Errorf("virtual times differ across identical runs: %v vs %v", a.Makespan, b.Makespan)
	}
	if a.FieldEnergy != b.FieldEnergy {
		t.Errorf("field energies differ: %v vs %v", a.FieldEnergy, b.FieldEnergy)
	}
}

// TestScaleInvariantTiming checks design decision 2 of DESIGN.md: virtual
// times do not depend on the fidelity knob.
func TestScaleInvariantTiming(t *testing.T) {
	base := QuickConfig(5)
	base.PPC = 64
	var spans []float64
	for _, scale := range []int{2, 4, 8} {
		cfg := base
		cfg.ParticleScale = scale
		rt, sys := newRuntime(1, 0)
		rep, err := Run(rt, Spec{Mode: ClusterOnly, Nodes: clusterNodes(sys, 1), Cfg: cfg})
		if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, rep.ParticleTime.Seconds())
	}
	for i := 1; i < len(spans); i++ {
		if rel := math.Abs(spans[i]-spans[0]) / spans[0]; rel > 0.02 {
			t.Errorf("particle time varies with scale: %v (rel %v)", spans, rel)
		}
	}
}

// TestSplitMatchesMonoPhysics is the key integration test: the Cluster-
// Booster split mode must compute exactly the same physics as mono mode.
func TestSplitMatchesMonoPhysics(t *testing.T) {
	for _, ranks := range []int{1, 2, 4} {
		cfg := QuickConfig(6)
		rtM, sysM := newRuntime(4, 4)
		mono, err := Run(rtM, Spec{Mode: ClusterOnly, Nodes: clusterNodes(sysM, ranks), Cfg: cfg})
		if err != nil {
			t.Fatalf("mono/%d: %v", ranks, err)
		}
		rtS, sysS := newRuntime(4, 4)
		split, err := Run(rtS, Spec{Mode: SplitCB, Nodes: boosterNodes(sysS, ranks), Cfg: cfg})
		if err != nil {
			t.Fatalf("split/%d: %v", ranks, err)
		}
		if mono.Checksum != split.Checksum {
			t.Errorf("ranks=%d: particle checksums differ: mono %v split %v",
				ranks, mono.Checksum, split.Checksum)
		}
		if mono.FieldEnergy != split.FieldEnergy {
			t.Errorf("ranks=%d: field energies differ: mono %v split %v",
				ranks, mono.FieldEnergy, split.FieldEnergy)
		}
		if mono.KineticEnergy != split.KineticEnergy {
			t.Errorf("ranks=%d: kinetic energies differ: mono %v split %v",
				ranks, mono.KineticEnergy, split.KineticEnergy)
		}
	}
}

// TestFieldSolverFasterOnCluster verifies the §IV-C statement: the field
// solver runs ~6× faster on a Cluster node than on a Booster node.
func TestFieldSolverFasterOnCluster(t *testing.T) {
	cfg := QuickConfig(10)
	rtC, sysC := newRuntime(1, 1)
	c, err := Run(rtC, Spec{Mode: ClusterOnly, Nodes: clusterNodes(sysC, 1), Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	rtB, sysB := newRuntime(1, 1)
	b, err := Run(rtB, Spec{Mode: BoosterOnly, Nodes: boosterNodes(sysB, 1), Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	ratio := b.FieldTime.Seconds() / c.FieldTime.Seconds()
	if ratio < 5.0 || ratio > 7.0 {
		t.Errorf("field-solver Cluster advantage = %.2f, want ≈6 (paper §IV-C)", ratio)
	}
}

// TestParticleSolverFasterOnBooster verifies the 1.35× Booster advantage.
func TestParticleSolverFasterOnBooster(t *testing.T) {
	cfg := QuickConfig(10)
	rtC, sysC := newRuntime(1, 1)
	c, err := Run(rtC, Spec{Mode: ClusterOnly, Nodes: clusterNodes(sysC, 1), Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	rtB, sysB := newRuntime(1, 1)
	b, err := Run(rtB, Spec{Mode: BoosterOnly, Nodes: boosterNodes(sysB, 1), Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	ratio := c.ParticleTime.Seconds() / b.ParticleTime.Seconds()
	if ratio < 1.2 || ratio > 1.5 {
		t.Errorf("particle-solver Booster advantage = %.2f, want ≈1.35 (paper §IV-C)", ratio)
	}
}

// TestSplitBeatsBothMonoModes verifies the headline result: C+B mode is
// faster than running on either module alone.
func TestSplitBeatsBothMonoModes(t *testing.T) {
	cfg := QuickConfig(12)
	cfg.PPC = 256 // enough particle weight for the realistic ratio
	rtC, sysC := newRuntime(1, 1)
	c, err := Run(rtC, Spec{Mode: ClusterOnly, Nodes: clusterNodes(sysC, 1), Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	rtB, sysB := newRuntime(1, 1)
	b, err := Run(rtB, Spec{Mode: BoosterOnly, Nodes: boosterNodes(sysB, 1), Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	rtS, sysS := newRuntimeFastSpawn(1, 1)
	s, err := Run(rtS, Spec{Mode: SplitCB, Nodes: boosterNodes(sysS, 1), Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan >= c.Makespan {
		t.Errorf("C+B (%v) not faster than Cluster (%v)", s.Makespan, c.Makespan)
	}
	if s.Makespan >= b.Makespan {
		t.Errorf("C+B (%v) not faster than Booster (%v)", s.Makespan, b.Makespan)
	}
}

func TestParticleMigrationKeepsCount(t *testing.T) {
	rt, sys := newRuntime(4, 0)
	cfg := QuickConfig(15)
	rep, err := Run(rt, Spec{Mode: ClusterOnly, Nodes: clusterNodes(sys, 4), Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	// Charge conservation implies no particles were lost in migration
	// (each species' count is encoded in the total charge staying zero,
	// and the checksum is finite).
	if math.Abs(rep.TotalCharge) > 1e-9 {
		t.Errorf("charge drifted to %v after migration", rep.TotalCharge)
	}
	if math.IsNaN(rep.Checksum) {
		t.Error("checksum NaN")
	}
}

func TestGridHaloLocalWrap(t *testing.T) {
	g := NewGrid(8, 8, 0, 1)
	a := g.F(FEx)
	for ix := 0; ix < 8; ix++ {
		a[g.Idx(ix, 1)] = 100 + float64(ix) // bottom row
		a[g.Idx(ix, 8)] = 200 + float64(ix) // top row
	}
	// Single-rank exchange = periodic copy.
	g.ExchangeHalos(nil, nil, FEx)
	if a[g.Idx(3, 0)] != 203 {
		t.Errorf("ghost 0 = %v, want 203", a[g.Idx(3, 0)])
	}
	if a[g.Idx(5, 9)] != 105 {
		t.Errorf("ghost top = %v, want 105", a[g.Idx(5, 9)])
	}
}

func TestCGConverges(t *testing.T) {
	// The field solve must converge well below the iteration cap on the
	// quick workload.
	rt, sys := newRuntime(1, 0)
	cfg := QuickConfig(5)
	rep, err := Run(rt, Spec{Mode: ClusterOnly, Nodes: clusterNodes(sys, 1), Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	maxIters := cfg.Steps * cfg.CGMaxIter
	if rep.CGIters >= maxIters {
		t.Errorf("CG hit the iteration cap (%d)", rep.CGIters)
	}
}

func TestExchangeFractionSmall(t *testing.T) {
	// §IV-C: the Cluster↔Booster exchange is a small fraction of the total.
	rt, sys := newRuntimeFastSpawn(1, 1)
	cfg := QuickConfig(12)
	cfg.PPC = 2048 // particle-heavy, like the real Table II workload
	if testing.Short() {
		// The overhead fraction is scale-invariant in the particle count;
		// -short checks the same property on a lighter particle load.
		cfg.PPC = 512
	}
	rep, err := Run(rt, Spec{Mode: SplitCB, Nodes: boosterNodes(sys, 1), Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if f := rep.OverheadFraction(); f > 0.25 {
		t.Errorf("coupling overhead = %.1f%%, expect small", 100*f)
	}
}

// TestReportStringSplit renders a C+B report: the percentage is the
// coupling overhead (time in neither solver), not the exchange window, which
// in split mode also holds each side's wait for the other solver.
func TestReportStringSplit(t *testing.T) {
	rep := Report{
		Mode: SplitCB, RanksPerSolver: 1, Steps: 90,
		Makespan:     3170 * vclock.Millisecond,
		FieldTime:    150 * vclock.Millisecond,
		ParticleTime: 2870 * vclock.Millisecond,
		ExchangeTime: 2990 * vclock.Millisecond,
	}
	want := "C+B     N=1  total=    3.17s  fields=   0.15s  particles=   2.87s  exch= 2.99s ( 4.7% overhead)"
	if got := rep.String(); got != want {
		t.Fatalf("String() =\n %q\nwant\n %q", got, want)
	}
}
