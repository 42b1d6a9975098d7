// Facility-resilience scenarios: facility streams on a failing machine. A
// FacilityResiliencePoint is a FacilityPoint whose params carry a
// FacilityFaults config; the metric set widens to the availability,
// goodput and lost-work quantities the fig-facility-resilience budgets pin
// against the analytic MTBF/(MTBF+MTTR) model.
package sweep

import (
	"clusterbooster/internal/sched"
)

// FacilityResiliencePoint is one fig-facility-resilience grid point: a
// synthetic arrival stream scheduled on one event kernel while seeded
// failure/repair processes degrade and restore the machine.
type FacilityResiliencePoint struct {
	sched.FacilityParams
}

// Scenario wraps the point as a self-contained Scenario reporting facility
// health under failures. Points with nil (or disabled) Faults are the
// failure-free baselines of their grid; their availability is exactly 1.
func (p FacilityResiliencePoint) Scenario(name string) Scenario {
	return Scenario{Name: name, Run: func() (Outcome, error) {
		out, err := sched.RunFacility(p.FacilityParams)
		if err != nil {
			return Outcome{}, err
		}
		horizon := out.Horizon
		availC, availB, goodput := out.AvailCluster, out.AvailBooster, out.Goodput
		satUtilC, satUtilB := out.SatUtilCluster, out.SatUtilBooster
		satAvailC, satAvailB := out.SatAvailCluster, out.SatAvailBooster
		if p.Faults == nil || !p.Faults.Enabled() {
			// Failure-free baseline: RunFacility reports no fault-mode
			// aggregates, so derive the comparable span and goodput from the
			// schedule itself (granted == requested node-time here, modulo
			// malleable stretch, which conserves work).
			horizon = out.Makespan
			availC, availB = 1, 1
			satUtilC, satUtilB = out.UtilCluster, out.UtilBooster
			satAvailC, satAvailB = 1, 1
			const cn, bn = sched.FacilityClusterNodes, sched.FacilityBoosterNodes
			goodput = (out.UtilCluster*cn + out.UtilBooster*bn) / (cn + bn)
		}
		return Outcome{Metrics: Metrics{
			"jobs":          float64(out.Jobs),
			"abandoned":     float64(out.Abandoned),
			"failures":      float64(out.Failures),
			"repairs":       float64(out.Repairs),
			"requeues":      float64(out.Requeues),
			"util_cluster":  out.UtilCluster,
			"util_booster":  out.UtilBooster,
			"avail_cluster": availC,
			"avail_booster": availB,
			"goodput":       goodput,
			"lost_node_s":   out.LostNodeSec,
			"makespan_s":    out.Makespan.Seconds(),
			"horizon_s":     horizon.Seconds(),
			"wait_mean_s":   out.MeanWait.Seconds(),
			// Saturated-window (up to the last arrival) utilization and
			// availability: what the steady-state cross-check compares.
			"sat_util_cluster":  satUtilC,
			"sat_util_booster":  satUtilB,
			"sat_avail_cluster": satAvailC,
			"sat_avail_booster": satAvailB,
		}}, nil
	}}
}
