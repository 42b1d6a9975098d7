package xpic

import (
	"clusterbooster/internal/psmpi"
	"clusterbooster/internal/vclock"
)

// Sim is one rank's xPic state in mono mode: grid, both solvers and the loop
// position. It exposes single-stepping and binary snapshot/restore, which is
// what the SCR checkpoint integration and the resilience experiments build
// on (§III-D: "the data required by the application to restart execution").
type Sim struct {
	Cfg Config
	G   *Grid
	Fld *FieldSolver
	Pcl *ParticleSolver

	Step    int
	T       Times
	CGIters int
}

// NewSim builds the rank-local simulation state for rank p of comm.
func NewSim(p *psmpi.Proc, comm *psmpi.Comm, cfg Config) *Sim {
	g := NewGrid(cfg.NX, cfg.NY, p.Rank(), comm.Size())
	return &Sim{
		Cfg: cfg,
		G:   g,
		Fld: NewFieldSolver(g, cfg),
		Pcl: NewParticleSolver(g, cfg),
	}
}

// Advance executes one Listing-1 iteration (calculateE, interface copies,
// particle move + moments, calculateB, periodic diagnostics).
func (s *Sim) Advance(p *psmpi.Proc, comm *psmpi.Comm) {
	cfg := s.Cfg
	phase(p, &s.T.Field, func() { s.Fld.SolveE(p, comm) })
	s.CGIters += s.Fld.LastIters

	// The interface copies go into and out of the same grid, an identity on
	// the data: only their cost is charged.
	phase(p, &s.T.Exchange, func() {
		chargeCopy(p, s.G, FieldNames)
		chargeCopy(p, s.G, FieldNames)
	})

	phase(p, &s.T.Particle, func() {
		s.Pcl.Move(p)
		s.Pcl.Migrate(p, comm)
		s.Pcl.Gather(p)
		s.G.ReduceMomentHalos(p, comm)
	})

	phase(p, &s.T.Exchange, func() {
		chargeCopy(p, s.G, MomentNames)
		chargeCopy(p, s.G, MomentNames)
	})

	phase(p, &s.T.Field, func() { s.Fld.SolveB(p, comm) })

	if s.Step%cfg.DiagEvery == 0 {
		// The sums are not kept, but their cost (T.Aux) is part of the
		// step's virtual time.
		phase(p, &s.T.Aux, func() {
			p.AllreduceScalar(comm, s.Fld.FieldEnergy(p), psmpi.OpSum)
			p.AllreduceScalar(comm, s.Pcl.KineticEnergy(p), psmpi.OpSum)
		})
	}
	s.Step++
}

// phase measures the virtual time of fn on rank p.
func phase(p *psmpi.Proc, acc *vclock.Time, fn func()) {
	start := p.Now()
	fn()
	*acc += p.Now() - start
}

// snapshot format magic/version.
const (
	snapMagic   = uint32(0x78504943) // "xPIC"
	snapVersion = uint32(1)
)

// Snapshot serialises this rank's full physics state (step, fields, moments,
// particles) — the checkpoint payload.
func (s *Sim) Snapshot() []byte {
	e := snapEnc{make([]byte, 0, snapHeaderLen+arraysLen(s.G, allFields)+speciesLen(s.Pcl))}
	e.header(snapMagic, s.Step)
	e.arrays(s.G, allFields)
	e.species(s.Pcl)
	return e.out
}

// Restore loads a snapshot produced by Snapshot on a Sim with the same
// configuration and decomposition.
func (s *Sim) Restore(data []byte) error {
	d := snapDec{data: data, what: "rank"}
	step, err := d.header(snapMagic)
	if err != nil {
		return err
	}
	s.Step = step
	if err := d.arrays(s.G, allFields); err != nil {
		return err
	}
	return d.species(s.Pcl)
}

// Checksum returns the deterministic physics fingerprint of this rank.
func (s *Sim) Checksum() float64 { return checksum(s.Pcl) }

// checksum produces a deterministic physics fingerprint of this rank's
// particles, used to verify that mono and split modes compute identical
// trajectories.
func checksum(pcl *ParticleSolver) float64 {
	var sum float64
	for _, sp := range pcl.Species {
		for i := range sp.X {
			sum += sp.X[i] + 2*sp.Y[i] + 3*sp.VX[i] + 5*sp.VY[i] + 7*sp.VZ[i]
		}
	}
	return sum
}
