// Package xpic reproduces the Space Weather application xPic of KU Leuven as
// described in §IV of the paper: a 2-D electromagnetic Particle-in-Cell code
// with the two-solver structure of Fig. 5 — an implicit field solver
// (Maxwell's equations via a CG iteration, the code part that wants high
// single-thread performance and frequent global communication) and a particle
// solver (Newton's equation + moment gathering, embarrassingly parallel and
// vector friendly) — connected through interface buffers.
//
// The package provides both execution modes of §IV-B:
//
//   - mono mode (Listing 1): both solvers run on the same set of nodes;
//   - Cluster-Booster split mode (Listings 2–4): the field solver runs on
//     Cluster nodes and the particle solver on Booster nodes, exchanging
//     E,B and ρ,J through MPI_Issend/Irecv on the inter-communicator created
//     by MPI_Comm_spawn.
//
// The simulation is real — particles move under interpolated fields, moments
// are gathered, Maxwell's equations are solved — while execution time is
// virtual, costed through the machine and fabric models. A ParticleScale
// knob runs 1/k of the macro-particles (with k-fold weight) so tests can be
// quick; virtual times are computed from the configured particle count and
// are exactly scale-invariant.
package xpic

import (
	"fmt"

	"clusterbooster/internal/vclock"
)

// SpeciesSpec describes one plasma species.
type SpeciesSpec struct {
	Name string
	// QoverM is the charge-to-mass ratio in normalised units (electrons
	// -1.0; heavier ions closer to 0).
	QoverM float64
	// ChargeSign is ±1.
	ChargeSign float64
	// Vth is the thermal velocity (of |c| = 1).
	Vth float64
}

// Config parameterises an xPic run. The zero value is not usable; start from
// Table2Config or QuickConfig.
type Config struct {
	NX, NY int // global grid cells (periodic in both directions)
	// PPC is the total number of macro-particles per cell, split evenly
	// across species (Table II: 2048).
	PPC     int
	Species []SpeciesSpec
	Steps   int
	// Dt is the time step in normalised units; the implicit field solve is
	// unconditionally stable, so Δt·ωp = 1 is practical (the point of the
	// implicit moment method).
	Dt float64
	// Theta is the implicitness parameter of the field solve (0.5 = centred).
	Theta float64
	// CGTol / CGMaxIter control the field solver's conjugate-gradient loop.
	CGTol     float64
	CGMaxIter int
	// DiagEvery computes the energy diagnostics every k-th step (real PIC
	// codes do not diagnose every step); these are the "auxiliary
	// computations" Listings 2-3 overlap with communication.
	DiagEvery int
	// DensityPerturbation modulates the initial plasma density with
	// 1 + A·sin(2πy/NY) — the large-scale structure of a space-weather
	// plasma. It costs nothing on one node but produces the particle load
	// imbalance that erodes strong-scaling efficiency at higher rank counts
	// (the behaviour behind Fig. 8's efficiency curves).
	DensityPerturbation float64
	// ParticleScale runs 1/k of the configured macro-particles with k-fold
	// statistical weight; virtual cost still reflects the configured count.
	ParticleScale int
	Seed          int64
}

// DefaultSpecies returns the two-species plasma used in the experiments: hot
// electrons and a reduced-mass ion background (mass ratio 25, standard in PIC
// method studies to keep ion dynamics visible at benchmark step counts).
func DefaultSpecies() []SpeciesSpec {
	return []SpeciesSpec{
		{Name: "electrons", QoverM: -1.0, ChargeSign: -1, Vth: 0.10},
		{Name: "ions", QoverM: 1.0 / 25.0, ChargeSign: +1, Vth: 0.02},
	}
}

// Table2Config returns the experiment setup of Table II of the paper:
// 4096 cells (64×64) with 2048 particles per cell, i.e. ≈8.4 M
// macro-particles, the single-node workload of Fig. 7 and the global
// (strong-scaled) workload of Fig. 8.
func Table2Config() Config {
	return Config{
		NX:                  64,
		NY:                  64,
		PPC:                 2048,
		Species:             DefaultSpecies(),
		Steps:               900,
		Dt:                  1.0,
		Theta:               0.5,
		CGTol:               1e-12,
		CGMaxIter:           80,
		DiagEvery:           10,
		DensityPerturbation: 0.30,
		ParticleScale:       64,
		Seed:                20180521,
	}
}

// QuickConfig returns a reduced workload for tests: a small grid, few
// particles, the given number of steps.
func QuickConfig(steps int) Config {
	c := Table2Config()
	c.NX, c.NY = 16, 16
	c.PPC = 64
	c.Steps = steps
	c.DiagEvery = 5
	c.ParticleScale = 4
	return c
}

// Validate checks the configuration for a run on ranksPerSolver ranks.
func (c Config) Validate(ranksPerSolver int) error {
	if c.NX < 4 || c.NY < 4 {
		return fmt.Errorf("xpic: grid %dx%d too small", c.NX, c.NY)
	}
	if ranksPerSolver < 1 {
		return fmt.Errorf("xpic: %d ranks per solver", ranksPerSolver)
	}
	if c.NY%ranksPerSolver != 0 {
		return fmt.Errorf("xpic: NY=%d not divisible by %d ranks", c.NY, ranksPerSolver)
	}
	if c.NY/ranksPerSolver < 2 {
		return fmt.Errorf("xpic: fewer than 2 rows per rank")
	}
	if len(c.Species) == 0 {
		return fmt.Errorf("xpic: no species")
	}
	if c.PPC%(len(c.Species)) != 0 {
		return fmt.Errorf("xpic: PPC=%d not divisible by %d species", c.PPC, len(c.Species))
	}
	if c.ParticleScale < 1 {
		return fmt.Errorf("xpic: ParticleScale must be >= 1")
	}
	ppcPerSpecies := c.PPC / len(c.Species)
	if ppcPerSpecies%c.ParticleScale != 0 {
		return fmt.Errorf("xpic: per-species PPC %d not divisible by scale %d", ppcPerSpecies, c.ParticleScale)
	}
	if c.Steps < 1 {
		return fmt.Errorf("xpic: %d steps", c.Steps)
	}
	if c.Dt <= 0 || c.Theta <= 0 || c.Theta > 1 {
		return fmt.Errorf("xpic: invalid dt=%v theta=%v", c.Dt, c.Theta)
	}
	if c.CGTol <= 0 || c.CGMaxIter < 1 {
		return fmt.Errorf("xpic: invalid CG parameters")
	}
	if c.DiagEvery < 1 {
		return fmt.Errorf("xpic: DiagEvery must be >= 1")
	}
	if c.DensityPerturbation < 0 || c.DensityPerturbation > 0.9 {
		return fmt.Errorf("xpic: density perturbation %v out of [0, 0.9]", c.DensityPerturbation)
	}
	return nil
}

// Cells returns the global cell count.
func (c Config) Cells() int { return c.NX * c.NY }

// TotalParticles returns the configured macro-particle count (all species).
func (c Config) TotalParticles() int { return c.Cells() * c.PPC }

// Times holds the per-phase virtual time accounting of one rank (the
// decomposition behind Fig. 7's Fields/Particles bars).
type Times struct {
	Field    vclock.Time // calculateE + calculateB (+ their internal comm)
	Particle vclock.Time // mover + moment gathering (+ migration)
	Exchange vclock.Time // interface-buffer exchange (intercomm in C+B mode)
	Aux      vclock.Time // auxiliary computations (energies, diagnostics)
}
