// The fig-facility-resilience experiment family: the facility simulator on
// a failing machine. Each grid point replays the same 600-job overload
// stream (load 1.4) while seeded per-module failure/repair processes drain
// and refill the pools; killed jobs rewind to their best surviving
// checkpoint (resilience.FacilityCheckpoint) or restart cold, and are
// requeued with bounded retry. The budgets pin the facility-resilience
// claims against the analytic steady-state availability MTBF/(MTBF+MTTR) —
// the Beowulf-performability cross-check of ROADMAP item 3 — and the value
// of checkpointing at facility scale: goodput, rescued jobs, lost work.
package exp

import (
	"fmt"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/resilience"
	"clusterbooster/internal/sched"
	"clusterbooster/internal/sweep"
	"clusterbooster/internal/vclock"
)

// facilityResilienceJobs is the stream length: long enough that hundreds of
// failures strike per faulty point (steady-state statistics), short enough
// to stay a CI-speed miniature.
const facilityResilienceJobs = 600

// facilityResilienceSeed fixes the arrival stream (shared by every point,
// so policies and regimes schedule the identical workload).
const facilityResilienceSeed = 20180708

// facilityRegime is one MTBF regime of the grid.
type facilityRegime struct {
	name   string
	faults *sched.FacilityFaults // nil = failure-free baseline
}

// facilityResilienceRegimes spans clean -> mild -> harsh. The profiles are
// heterogeneous per module (the KNL Booster fails twice as often as the
// Xeon Cluster), exercising the independent per-pool processes. Named by
// the Booster's per-node MTBF in virtual seconds: at mtbf12, a 16+16-node
// xpic-weak job's allocation takes a hit every ~0.5 virtual seconds —
// killed several times per 2.4s run, the regime where checkpointing decides
// between finishing and abandonment.
func facilityResilienceRegimes() []facilityRegime {
	return []facilityRegime{
		{name: "clean"},
		{name: "mtbf45", faults: &sched.FacilityFaults{
			Cluster: machine.FailureProfile{MTBF: 90, MTTR: 3},
			Booster: machine.FailureProfile{MTBF: 45, MTTR: 3},
			Seed:    20180711, MaxRetries: 16,
		}},
		{name: "mtbf12", faults: &sched.FacilityFaults{
			Cluster: machine.FailureProfile{MTBF: 20, MTTR: 1.5},
			Booster: machine.FailureProfile{MTBF: 12, MTTR: 1.5},
			Seed:    20180711, MaxRetries: 16,
		}},
	}
}

// facilityResilienceCkpt is the checkpoint policy of the ckpt points:
// checkpoint every 250ms of work at 10ms cost, 20ms restore on resume.
func facilityResilienceCkpt() resilience.FacilityCheckpoint {
	return resilience.FacilityCheckpoint{
		Every:   250 * vclock.Millisecond,
		Cost:    10 * vclock.Millisecond,
		Restore: 20 * vclock.Millisecond,
	}
}

// facilityResiliencePointName names one grid point, e.g.
// "fig-facility-resilience/backfill/mtbf12/ckpt" (clean points have no
// checkpoint leg — there is nothing to rewind from).
func facilityResiliencePointName(pol sched.FacilityPolicy, regime string, ckpt bool) string {
	if regime == "clean" {
		return fmt.Sprintf("fig-facility-resilience/%s/clean", pol)
	}
	leg := "cold"
	if ckpt {
		leg = "ckpt"
	}
	return fmt.Sprintf("fig-facility-resilience/%s/%s/%s", pol, regime, leg)
}

func registerFigFacilityResilience() {
	e := Experiment{
		Name:    "fig-facility-resilience",
		Title:   "Facility resilience: failing machine, scheduler degradation, checkpoint-restart requeue (DEEP-ER resiliency at facility scale)",
		Version: 1,
		Grid: fmt.Sprintf("{fcfs, backfill, malleable} x regime {clean, mtbf45, mtbf12} x {cold, ckpt}, %d jobs at load 1.4 on a %d+%d-node machine",
			facilityResilienceJobs, sched.FacilityClusterNodes, sched.FacilityBoosterNodes),
		Profile: "facility-resilience-600",
		Tolerance: map[string]float64{
			"*": 0.02,
		},
		Budgets: []Budget{
			// The analytic cross-check: simulated per-pool availability must
			// track the steady-state MTBF/(MTBF+MTTR) closed form at every
			// faulty point. Measured error is ~0.8%; the bound is the 10%
			// tolerance the Beowulf-performability comparison demands.
			{Measure: "avail_err_max", Kind: MaxBudget, Bound: 0.10},
			// Under saturation the work-conserving (malleable) scheduler
			// delivers bottleneck-pool utilization within 10% of the analytic
			// availability bound (measured ~3%): failures cost the facility
			// what the availability model says they cost, no more.
			{Measure: "malleable_sat_util_avail_err", Kind: MaxBudget, Bound: 0.10},
			// Rigid backfill pays a fragmentation tax on top — bounded too,
			// so drain/requeue regressions cannot hide behind it.
			{Measure: "backfill_sat_util_avail_err", Kind: MaxBudget, Bound: 0.15},
			// Checkpointing at least 1.3x's goodput at the harsh point
			// (measured ~4.7x: cold restart loses whole wide jobs to retry
			// exhaustion, checkpoints convert kills into bounded rework).
			{Measure: "ckpt_goodput_gain_harsh", Kind: MinBudget, Bound: 1.3},
			// ...and checkpointing never loses to cold restart anywhere on
			// the grid.
			{Measure: "ckpt_goodput_gain_min", Kind: MinBudget, Bound: 1.3},
			// Cold restart under harsh MTBF abandons wide jobs after retry
			// exhaustion; with checkpoints every job finishes.
			{Measure: "cold_harsh_abandoned", Kind: MinBudget, Bound: 10},
			{Measure: "ckpt_abandoned_max", Kind: MaxBudget, Bound: 0},
			// Every point must account for the whole stream: completed +
			// abandoned = submitted, i.e. no job is lost by the requeue path.
			{Measure: "jobs_accounted_min", Kind: MinBudget, Bound: facilityResilienceJobs},
			// The failure/repair processes must actually exercise the requeue
			// machinery at every faulty point.
			{Measure: "requeues_min", Kind: MinBudget, Bound: 50},
			// Virtual-time ceiling: the family stays a CI-speed miniature.
			{Measure: "max_makespan_s", Kind: MaxBudget, Bound: 600},
		},
	}
	regimes := facilityResilienceRegimes()
	registerResultSet(e, func() ([]sweep.Scenario, error) {
		var scen []sweep.Scenario
		for _, pol := range sched.FacilityPolicies() {
			for _, reg := range regimes {
				for _, ckpt := range []bool{false, true} {
					if reg.faults == nil && ckpt {
						continue // nothing to checkpoint on a clean machine
					}
					p := sched.FacilityParams{
						Policy: pol,
						Jobs:   facilityResilienceJobs,
						Load:   1.4,
						Seed:   facilityResilienceSeed,
					}
					if reg.faults != nil {
						faults := *reg.faults
						if ckpt {
							faults.Rewind = facilityResilienceCkpt()
						}
						p.Faults = &faults
					}
					scen = append(scen, sweep.FacilityResiliencePoint{FacilityParams: p}.
						Scenario(facilityResiliencePointName(pol, reg.name, ckpt)))
				}
			}
		}
		return scen, nil
	}, func(rs sweep.ResultSet) (map[string]string, map[string]float64) {
		measures := sweepMeasures(rs)
		at := func(pol sched.FacilityPolicy, regime string, ckpt bool, metric string) float64 {
			return resultMetric(rs, facilityResiliencePointName(pol, regime, ckpt), metric)
		}
		relErr := func(sim, analytic float64) float64 {
			if analytic == 0 {
				return 0
			}
			e := sim/analytic - 1
			if e < 0 {
				e = -e
			}
			return e
		}
		availErrMax := 0.0
		satErr := map[sched.FacilityPolicy]float64{}
		gainMin, gainHarsh := 0.0, 0.0
		coldHarshAbandoned, ckptAbandonedMax := 0.0, 0.0
		jobsAccountedMin := float64(facilityResilienceJobs)
		requeuesMin := 0.0
		first := true
		for _, pol := range sched.FacilityPolicies() {
			for _, reg := range regimes {
				for _, ckpt := range []bool{false, true} {
					if reg.faults == nil && ckpt {
						continue
					}
					accounted := at(pol, reg.name, ckpt, "jobs") + at(pol, reg.name, ckpt, "abandoned")
					if accounted < jobsAccountedMin {
						jobsAccountedMin = accounted
					}
					if reg.faults == nil {
						continue
					}
					aC := reg.faults.Cluster.Availability()
					aB := reg.faults.Booster.Availability()
					for _, pair := range [][2]float64{
						{at(pol, reg.name, ckpt, "avail_cluster"), aC},
						{at(pol, reg.name, ckpt, "avail_booster"), aB},
					} {
						if e := relErr(pair[0], pair[1]); e > availErrMax {
							availErrMax = e
						}
					}
					// Bottleneck (Booster) pool, saturated window: utilization
					// vs the analytic availability bound.
					if e := relErr(at(pol, reg.name, ckpt, "sat_util_booster"), aB); e > satErr[pol] {
						satErr[pol] = e
					}
					if ckpt {
						gain := at(pol, reg.name, true, "goodput") / at(pol, reg.name, false, "goodput")
						if first || gain < gainMin {
							gainMin = gain
							first = false
						}
						if a := at(pol, reg.name, true, "abandoned"); a > ckptAbandonedMax {
							ckptAbandonedMax = a
						}
					}
					if r := at(pol, reg.name, ckpt, "requeues"); requeuesMin == 0 || r < requeuesMin {
						requeuesMin = r
					}
				}
			}
		}
		gainHarsh = at(sched.FacilityBackfill, "mtbf12", true, "goodput") / at(sched.FacilityBackfill, "mtbf12", false, "goodput")
		coldHarshAbandoned = at(sched.FacilityBackfill, "mtbf12", false, "abandoned")
		measures["avail_err_max"] = availErrMax
		measures["malleable_sat_util_avail_err"] = satErr[sched.FacilityMalleable]
		measures["backfill_sat_util_avail_err"] = satErr[sched.FacilityBackfill]
		measures["ckpt_goodput_gain_harsh"] = gainHarsh
		measures["ckpt_goodput_gain_min"] = gainMin
		measures["cold_harsh_abandoned"] = coldHarshAbandoned
		measures["ckpt_abandoned_max"] = ckptAbandonedMax
		measures["jobs_accounted_min"] = jobsAccountedMin
		measures["requeues_min"] = requeuesMin
		meta := map[string]string{
			"profile":  "facility-resilience-600",
			"workload": "one seeded 600-job overload stream (load 1.4) replayed across policies, MTBF regimes and checkpoint legs",
			"grid":     "see internal/exp/facility_resilience.go; analytic availability cross-check per pool, Beowulf-performability style",
		}
		return meta, measures
	})
}
