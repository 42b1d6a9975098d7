package machine

import (
	"fmt"
	"math"

	"clusterbooster/internal/vclock"
)

// FailureProfile is the reliability model of one module's node population:
// every node of the module fails independently with exponential time between
// failures (mean MTBF) and returns to service after an exponential repair
// (mean MTTR). The two DEEP modules get independent profiles — the KNL
// Booster and the Xeon Cluster have no reason to share failure behaviour —
// which is exactly the heterogeneous-MTBF axis ROADMAP item 3 calls for.
//
// Note the unit: virtual seconds, the same clock as the job makespans. CI
// workloads run virtual seconds rather than wall-clock weeks, so experiment
// MTBFs are scaled down accordingly; the Markov model underneath is
// scale-free, and so is the steady-state availability it predicts.
type FailureProfile struct {
	// MTBF is the per-node mean time between failures (0 disables failures
	// for the module).
	MTBF vclock.Time
	// MTTR is the per-node mean time to repair. Each failed node repairs
	// independently, so the module behaves as the classic machine-repairman
	// model with as many repair crews as nodes.
	MTTR vclock.Time
}

// Enabled reports whether the profile injects failures at all.
func (f FailureProfile) Enabled() bool { return f.MTBF > 0 }

// Availability returns the steady-state fraction of time a node is in
// service: MTBF/(MTBF+MTTR), the standard renewal-theory limit used by the
// Beowulf performability literature. A disabled profile is always up.
func (f FailureProfile) Availability() float64 {
	if !f.Enabled() {
		return 1
	}
	return f.MTBF.Seconds() / (f.MTBF + f.MTTR).Seconds()
}

// Validate rejects profiles the failure process cannot simulate: an enabled
// profile needs a positive repair time (a zero MTTR with failures on would
// mean instant repair — expressible, but almost always a forgotten field)
// and no negative or non-finite times (a NaN draw never fires in order, an
// infinite one never fires at all).
func (f FailureProfile) Validate() error {
	if !finite(f.MTBF) || !finite(f.MTTR) {
		return fmt.Errorf("machine: non-finite failure profile (MTBF %v, MTTR %v)", f.MTBF, f.MTTR)
	}
	if f.MTBF < 0 || f.MTTR < 0 {
		return fmt.Errorf("machine: negative failure profile (MTBF %v, MTTR %v)", f.MTBF, f.MTTR)
	}
	if f.Enabled() && f.MTTR <= 0 {
		return fmt.Errorf("machine: failure profile with MTBF %v needs a positive MTTR", f.MTBF)
	}
	return nil
}

// finite reports whether t is neither NaN nor infinite.
func finite(t vclock.Time) bool {
	return !math.IsNaN(float64(t)) && !math.IsInf(float64(t), 0)
}
