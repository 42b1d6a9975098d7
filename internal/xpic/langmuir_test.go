package xpic

import (
	"math"
	"testing"

	"clusterbooster/internal/psmpi"
)

// TestLangmuirOscillation validates the plasma physics of the PIC loop: a
// cold plasma with a small sinusoidal electron velocity perturbation must
// oscillate at the plasma frequency, ωp = 1 in normalised units (period
// 2π). This exercises the full loop — deposits, the Ampère-law part of the
// field solve, interpolation and the Boris push — against an analytic
// result.
func TestLangmuirOscillation(t *testing.T) {
	if testing.Short() {
		t.Skip("120-step plasma-frequency integration; covered in default mode")
	}
	rt, sys := newRuntime(1, 0)
	cfg := QuickConfig(1)
	cfg.NX, cfg.NY = 32, 8
	cfg.Dt = 0.25
	cfg.DensityPerturbation = 0
	const steps = 120

	var signal []float64
	_, err := rt.Launch(psmpi.LaunchSpec{
		Nodes: clusterNodes(sys, 1),
		Main: func(p *psmpi.Proc) error {
			comm := p.World()
			g := NewGrid(cfg.NX, cfg.NY, 0, 1)
			fld := NewFieldSolver(g, cfg)

			// Quiet start: electrons and (nearly immobile) ions on a regular
			// lattice, unit density each, with a standing velocity
			// perturbation vx = v0·sin(kx) on the electrons.
			const perCell = 4
			k := 2 * math.Pi / float64(cfg.NX)
			const v0 = 0.01
			mk := func(qom, sign float64, perturb bool) *Species {
				s := &Species{
					Spec: SpeciesSpec{QoverM: qom, ChargeSign: sign},
					Q:    sign / perCell,
				}
				for iy := 0; iy < cfg.NY; iy++ {
					for ix := 0; ix < cfg.NX; ix++ {
						for j := 0; j < perCell; j++ {
							x := float64(ix) + (float64(j)+0.5)/perCell
							y := float64(iy) + 0.5
							s.X = append(s.X, x)
							s.Y = append(s.Y, y)
							vx := 0.0
							if perturb {
								vx = v0 * math.Sin(k*x)
							}
							s.VX = append(s.VX, vx)
							s.VY = append(s.VY, 0)
							s.VZ = append(s.VZ, 0)
						}
					}
				}
				return s
			}
			ps := &ParticleSolver{g: g, cfg: cfg, scale: 1}
			ps.Species = []*Species{
				mk(-1.0, -1, true),       // electrons
				mk(1.0/10000, +1, false), // heavy ions (immobile on this timescale)
			}

			for step := 0; step < steps; step++ {
				fld.SolveE(p, comm)
				ps.Move(p)
				ps.Gather(p)
				g.ReduceMomentHalos(p, comm)
				fld.SolveB(p, comm)
				// Probe Ex at a fixed antinode of the perturbation.
				ex := g.F(FEx)
				signal = append(signal, ex[g.Idx(cfg.NX/4, 2)])
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The probe signal must oscillate: measure the period from successive
	// zero crossings (skip the first few transient steps).
	var crossings []int
	for i := 10; i < len(signal); i++ {
		if signal[i-1] < 0 && signal[i] >= 0 {
			crossings = append(crossings, i)
		}
	}
	if len(crossings) < 2 {
		t.Fatalf("no oscillation detected: %d upward crossings", len(crossings))
	}
	meanGap := float64(crossings[len(crossings)-1]-crossings[0]) / float64(len(crossings)-1)
	period := meanGap * cfg.Dt
	want := 2 * math.Pi // ωp = 1
	if period < 0.7*want || period > 1.4*want {
		t.Errorf("Langmuir period = %.2f, want ≈ 2π = %.2f (ωp = 1)", period, want)
	}
	// The oscillation amplitude must not grow (implicit scheme is stable
	// and slightly damping).
	var early, late float64
	for i := 10; i < 40; i++ {
		early = math.Max(early, math.Abs(signal[i]))
	}
	for i := len(signal) - 30; i < len(signal); i++ {
		late = math.Max(late, math.Abs(signal[i]))
	}
	if late > early*1.2 {
		t.Errorf("oscillation grows: early max %v, late max %v", early, late)
	}
}
