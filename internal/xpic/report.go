package xpic

import (
	"fmt"
	"sync"

	"clusterbooster/internal/vclock"
)

// Mode identifies an execution scenario of §IV-C.
type Mode int

const (
	// ClusterOnly runs both solvers on Cluster nodes (the "Cluster" bars).
	ClusterOnly Mode = iota
	// BoosterOnly runs both solvers on Booster nodes (the "Booster" bars).
	BoosterOnly
	// SplitCB runs the field solver on the Cluster and the particle solver
	// on the Booster (the "C+B" bars).
	SplitCB
)

// String names the mode as in the paper's figures.
func (m Mode) String() string {
	switch m {
	case ClusterOnly:
		return "Cluster"
	case BoosterOnly:
		return "Booster"
	case SplitCB:
		return "C+B"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// MarshalJSON emits the figure label rather than the enum ordinal, so
// aggregated sweep results stay readable.
func (m Mode) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", m.String())), nil
}

// UnmarshalJSON accepts the figure label.
func (m *Mode) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"Cluster"`:
		*m = ClusterOnly
	case `"Booster"`:
		*m = BoosterOnly
	case `"C+B"`:
		*m = SplitCB
	default:
		return fmt.Errorf("xpic: unknown mode %s", b)
	}
	return nil
}

// Report is the outcome of one xPic run — the quantities behind Fig. 7
// (per-solver runtimes) and Fig. 8 (total runtime and parallel efficiency).
type Report struct {
	Mode           Mode `json:"mode"`
	RanksPerSolver int  `json:"ranks_per_solver"`
	Steps          int  `json:"steps"`

	// Makespan is the job's total virtual runtime (the "Total" bar).
	Makespan vclock.Time `json:"makespan_s"`
	// FieldTime and ParticleTime are the per-solver runtimes (max over
	// ranks of the accumulated solver phases, including solver-internal
	// communication — how the paper attributes Fig. 7's bars).
	FieldTime    vclock.Time `json:"field_s"`
	ParticleTime vclock.Time `json:"particle_s"`
	// ExchangeTime is the interface-buffer exchange cost. In split mode each
	// side's exchange window includes waiting for the other solver to produce
	// its data (the pipeline of Listings 2–3); the paper's 3–4 % coupling
	// overhead is OverheadFraction, not this time's share.
	ExchangeTime vclock.Time `json:"exchange_s"`
	// AuxTime covers the auxiliary computations (energies, diagnostics).
	AuxTime vclock.Time `json:"aux_s"`

	// CGIters is the total CG iteration count of the field solver.
	CGIters int `json:"cg_iters"`

	// Physics diagnostics (identical across modes for identical configs).
	FieldEnergy   float64 `json:"field_energy"`
	KineticEnergy float64 `json:"kinetic_energy"`
	TotalCharge   float64 `json:"total_charge"`
	Checksum      float64 `json:"checksum"`
}

// OverheadFraction returns the share of the total runtime spent neither in
// the field solver nor in the particle solver: transfers, synchronisation
// and unoverlapped auxiliaries. This is the observable behind the paper's
// "3% to 4% overhead per solver" statement — in C+B mode the two solvers
// alternate, so everything beyond their sum is coupling overhead.
func (r Report) OverheadFraction() float64 {
	if r.Makespan == 0 {
		return 0
	}
	over := r.Makespan - r.FieldTime - r.ParticleTime
	if over < 0 {
		return 0
	}
	return over.Seconds() / r.Makespan.Seconds()
}

// String renders a one-line summary, closing with OverheadFraction.
func (r Report) String() string {
	return fmt.Sprintf("%-7s N=%d  total=%8.2fs  fields=%7.2fs  particles=%7.2fs  exch=%5.2fs (%4.1f%% overhead)",
		r.Mode, r.RanksPerSolver, r.Makespan.Seconds(), r.FieldTime.Seconds(),
		r.ParticleTime.Seconds(), r.ExchangeTime.Seconds(), 100*r.OverheadFraction())
}

// sink collects per-rank contributions into a report, from concurrent rank
// goroutines.
type sink struct {
	mu     sync.Mutex
	rep    Report
	charge map[int]float64
	check  map[int]float64
}

// addTimes merges one rank's phase times (keeping per-phase maxima — ranks
// are symmetric, the slowest defines the bar) and accumulates diagnostics.
func (s *sink) addTimes(t Times, cgIters int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rep.FieldTime = vclock.Max(s.rep.FieldTime, t.Field)
	s.rep.ParticleTime = vclock.Max(s.rep.ParticleTime, t.Particle)
	s.rep.ExchangeTime = vclock.Max(s.rep.ExchangeTime, t.Exchange)
	s.rep.AuxTime = vclock.Max(s.rep.AuxTime, t.Aux)
	if cgIters > s.rep.CGIters {
		s.rep.CGIters = cgIters
	}
}

// addPhysics records one rank's diagnostics. Per-rank values are kept and
// folded in rank order by finalize, so cross-rank float summation is
// deterministic regardless of goroutine completion order.
func (s *sink) addPhysics(rank int, fieldE, kinE, charge, checksum float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fieldE != 0 {
		s.rep.FieldEnergy = fieldE
	}
	if kinE != 0 {
		s.rep.KineticEnergy = kinE
	}
	if s.charge == nil {
		s.charge = map[int]float64{}
		s.check = map[int]float64{}
	}
	s.charge[rank] += charge
	s.check[rank] += checksum
}

// finalize folds per-rank diagnostics in rank order.
func (s *sink) finalize(ranks int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rep.TotalCharge, s.rep.Checksum = 0, 0
	for r := 0; r < ranks; r++ {
		s.rep.TotalCharge += s.charge[r]
		s.rep.Checksum += s.check[r]
	}
}
