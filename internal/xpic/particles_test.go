package xpic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"clusterbooster/internal/psmpi"
)

// singleParticle builds a solver holding exactly one particle of the given
// species parameters.
func singleParticle(g *Grid, cfg Config, qom, x, y, vx, vy, vz float64) *ParticleSolver {
	ps := &ParticleSolver{g: g, cfg: cfg, scale: 1}
	ps.Species = []*Species{{
		Spec: SpeciesSpec{Name: "test", QoverM: qom, ChargeSign: 1, Vth: 0},
		Q:    1,
		X:    []float64{x}, Y: []float64{y},
		VX: []float64{vx}, VY: []float64{vy}, VZ: []float64{vz},
	}}
	return ps
}

func TestUniformEAccelerates(t *testing.T) {
	// A particle in uniform Ez with q/m=1 gains vz = E·dt per step.
	withRank(t, func(p *psmpi.Proc) error {
		cfg := QuickConfig(1)
		cfg.Dt = 0.5
		g := NewGrid(16, 16, 0, 1)
		ez := g.F(FEz)
		for i := range ez {
			ez[i] = 2.0
		}
		ps := singleParticle(g, cfg, 1.0, 8, 8, 0, 0, 0)
		ps.Move(p)
		want := 2.0 * 0.5 // E·dt
		if got := ps.Species[0].VZ[0]; math.Abs(got-want) > 1e-12 {
			t.Errorf("vz after one step = %v, want %v", got, want)
		}
		return nil
	})
}

func TestBorisPreservesSpeedInPureB(t *testing.T) {
	// The Boris rotation is energy conserving: in a pure magnetic field the
	// speed must not change over many steps.
	withRank(t, func(p *psmpi.Proc) error {
		cfg := QuickConfig(1)
		cfg.Dt = 0.3
		g := NewGrid(16, 16, 0, 1)
		bz := g.F(FBz)
		for i := range bz {
			bz[i] = 1.5
		}
		ps := singleParticle(g, cfg, 1.0, 8, 8, 0.1, 0.05, 0.02)
		v0 := math.Sqrt(0.1*0.1 + 0.05*0.05 + 0.02*0.02)
		for step := 0; step < 200; step++ {
			ps.Move(p)
		}
		s := ps.Species[0]
		v1 := math.Sqrt(s.VX[0]*s.VX[0] + s.VY[0]*s.VY[0] + s.VZ[0]*s.VZ[0])
		if math.Abs(v1-v0) > 1e-12 {
			t.Errorf("speed drifted in pure B: %v → %v", v0, v1)
		}
		return nil
	})
}

func TestGyroRotationDirection(t *testing.T) {
	// Positive charge in Bz > 0 with vx > 0: the Lorentz force qv×B points
	// in -y initially.
	withRank(t, func(p *psmpi.Proc) error {
		cfg := QuickConfig(1)
		cfg.Dt = 0.1
		g := NewGrid(16, 16, 0, 1)
		bz := g.F(FBz)
		for i := range bz {
			bz[i] = 1.0
		}
		ps := singleParticle(g, cfg, 1.0, 8, 8, 0.2, 0, 0)
		ps.Move(p)
		if vy := ps.Species[0].VY[0]; vy >= 0 {
			t.Errorf("vy after rotation = %v, want negative", vy)
		}
		return nil
	})
}

func TestDepositConservesCharge(t *testing.T) {
	// The bilinear deposit distributes exactly the particle's charge.
	withRank(t, func(p *psmpi.Proc) error {
		cfg := QuickConfig(1)
		g := NewGrid(8, 8, 0, 1)
		ps := singleParticle(g, cfg, 1.0, 3.3, 4.7, 0, 0, 0)
		ps.Gather(p)
		rho := g.F(FRho)
		var sum float64
		for i := range rho {
			sum += rho[i]
		}
		if math.Abs(sum-1.0) > 1e-12 {
			t.Errorf("deposited charge = %v, want 1", sum)
		}
		return nil
	})
}

func TestInterpConstantField(t *testing.T) {
	withRank(t, func(p *psmpi.Proc) error {
		cfg := QuickConfig(1)
		g := NewGrid(8, 8, 0, 1)
		a := g.F(FEx)
		for i := range a {
			a[i] = 5.5
		}
		ps := singleParticle(g, cfg, 1.0, 0, 0, 0, 0, 0)
		for _, xy := range [][2]float64{{0.1, 0.1}, {3.5, 4.5}, {7.9, 7.9}, {7.99, 0.01}} {
			if got := ps.interp(a, xy[0], xy[1]); math.Abs(got-5.5) > 1e-12 {
				t.Errorf("interp(%v) = %v, want 5.5", xy, got)
			}
		}
		return nil
	})
}

func TestQuickInterpDepositAdjoint(t *testing.T) {
	// Property: interpolation and deposition use the same weights — the
	// deposit of charge q at (x,y) then interpolated at (x,y) by a field
	// that is 1 at the four touched nodes yields exactly q's weights sum.
	withRank(t, func(p *psmpi.Proc) error {
		cfg := QuickConfig(1)
		g := NewGrid(16, 16, 0, 1)
		ps := singleParticle(g, cfg, 1.0, 0, 0, 0, 0, 0)
		f := func(rx, ry uint16) bool {
			x := float64(rx) / 65536 * 16
			y := float64(ry) / 65536 * 14 // keep inside slab rows
			a := g.F(FRho)
			for i := range a {
				a[i] = 0
			}
			ps.deposit(a, x, y, 2.5)
			var sum float64
			for i := range a {
				sum += a[i]
			}
			return math.Abs(sum-2.5) < 1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Error(err)
		}
		return nil
	})
}

func TestMigrationDelivery(t *testing.T) {
	// Across 4 ranks: place particles just past the slab edges and verify
	// they arrive on the right rank, preserving total count.
	rt, sys := newRuntime(4, 0)
	total := make(chan int, 4)
	_, err := rt.Launch(psmpi.LaunchSpec{
		Nodes: clusterNodes(sys, 4),
		Main: func(p *psmpi.Proc) error {
			cfg := QuickConfig(1)
			g := NewGrid(16, 16, p.Rank(), 4) // 4 rows per slab
			ps := &ParticleSolver{g: g, cfg: cfg, scale: 1}
			// One particle that stays, one that belongs to the up-neighbour,
			// one to the down-neighbour (global y wraps).
			up := math.Mod(float64(g.Y0+g.LY)+0.5, 16)
			down := math.Mod(float64(g.Y0)-0.5+16, 16)
			ps.Species = []*Species{{
				Spec: SpeciesSpec{QoverM: 1, ChargeSign: 1},
				Q:    1,
				X:    []float64{1, 2, 3},
				Y:    []float64{float64(g.Y0) + 1, up, down},
				VX:   []float64{0, 0, 0}, VY: []float64{0, 0, 0}, VZ: []float64{0, 0, 0},
			}}
			ps.Migrate(p, p.World())
			// After migration: every particle must be inside this slab.
			for _, y := range ps.Species[0].Y {
				if y < float64(g.Y0) || y >= float64(g.Y0+g.LY) {
					t.Errorf("rank %d holds foreign particle y=%v", p.Rank(), y)
				}
			}
			total <- ps.Species[0].N()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	close(total)
	sum := 0
	for n := range total {
		sum += n
	}
	if sum != 12 {
		t.Fatalf("particles after migration = %d, want 12", sum)
	}
}

func TestDensityPerturbationImbalance(t *testing.T) {
	// With a sinusoidal density profile the per-slab particle counts differ
	// (the Fig. 8 load-imbalance mechanism) while both species stay locally
	// balanced (quasi-neutral).
	cfg := QuickConfig(1)
	cfg.DensityPerturbation = 0.3
	counts := make([]int, 4)
	for rank := 0; rank < 4; rank++ {
		g := NewGrid(cfg.NX, cfg.NY, rank, 4)
		ps := NewParticleSolver(g, cfg)
		counts[rank] = ps.TotalN()
		if ps.Species[0].N() != ps.Species[1].N() {
			t.Errorf("rank %d: species imbalance %d vs %d", rank, ps.Species[0].N(), ps.Species[1].N())
		}
	}
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min == 0 {
		t.Errorf("no imbalance despite perturbation: %v", counts)
	}
	// And without perturbation the counts are equal.
	cfg.DensityPerturbation = 0
	g := NewGrid(cfg.NX, cfg.NY, 0, 4)
	g2 := NewGrid(cfg.NX, cfg.NY, 2, 4)
	if NewParticleSolver(g, cfg).TotalN() != NewParticleSolver(g2, cfg).TotalN() {
		t.Error("uniform plasma not balanced")
	}
}

func TestSlabDensityShareIntegratesToOne(t *testing.T) {
	// The per-slab shares must average to 1 over the whole domain.
	for _, ranks := range []int{1, 2, 4, 8} {
		var sum float64
		for rank := 0; rank < ranks; rank++ {
			g := NewGrid(64, 64, rank, ranks)
			sum += slabDensityShare(0.3, g)
		}
		if math.Abs(sum/float64(ranks)-1) > 1e-12 {
			t.Errorf("ranks=%d: mean share = %v", ranks, sum/float64(ranks))
		}
	}
}

func TestKineticEnergyPositive(t *testing.T) {
	withRank(t, func(p *psmpi.Proc) error {
		cfg := QuickConfig(1)
		g := NewGrid(16, 16, 0, 1)
		ps := NewParticleSolver(g, cfg)
		if e := ps.KineticEnergy(p); e <= 0 || math.IsNaN(e) {
			t.Errorf("kinetic energy = %v", e)
		}
		return nil
	})
}

// TestReseededRNGMatchesFreshSource pins the contract NewParticleSolver's
// pooled generator relies on: a generator already drawn from at another
// seed and then re-seeded yields exactly the streams of a fresh
// rand.NewSource at that seed.
func TestReseededRNGMatchesFreshSource(t *testing.T) {
	rng := seedRNGs.Get().(*rand.Rand)
	defer seedRNGs.Put(rng)
	for _, seed := range []int64{0, 1, -7, 20180521, 20180521 + 1009 + 15*9973, math.MaxInt64} {
		for _, draw := range []struct {
			name string
			f    func(*rand.Rand) float64
		}{{"Float64", (*rand.Rand).Float64}, {"NormFloat64", (*rand.Rand).NormFloat64}} {
			rng.Seed(seed ^ 0x5eed) // use it at another seed first
			for i := 0; i < 1000; i++ {
				draw.f(rng)
			}
			rng.Seed(seed)
			fresh := rand.New(rand.NewSource(seed))
			for i := 0; i < 10000; i++ {
				if a, b := draw.f(rng), draw.f(fresh); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("seed %d: %s draw %d = %v re-seeded, %v fresh", seed, draw.name, i, a, b)
				}
			}
		}
	}
}
