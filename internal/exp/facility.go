// The fig-facility experiment family: the prototype as a shared facility
// under sustained multi-user load (§II-A's batch system, ref [5]), not one
// job on an empty machine. Each grid point feeds the same seeded synthetic
// arrival stream — 1000 jobs, shapes drawn from the xpic workload catalog —
// through one queue policy on one event kernel, co-scheduling the Cluster
// and Booster pools independently. The derived measures pin the scheduling
// claims: conservative backfill cuts waits and p95 bounded slowdown without
// delaying queue heads, and malleable-shrink (the DEEP malleability work)
// converts backfill's leftover holes into Cluster utilization.
package exp

import (
	"fmt"

	"clusterbooster/internal/sched"
	"clusterbooster/internal/sweep"
)

// facilityLoads spans the load axis: a busy facility (0.7 of bottleneck
// capacity) and sustained overload (1.4, the queue-growth regime where
// policy differences dominate).
func facilityLoads() []float64 { return []float64{0.7, 1.4} }

// facilityJobs is the arrival-stream length of every grid point.
const facilityJobs = 1000

// facilitySeed derives the stream seed from the load only, so all three
// policies at one load schedule the identical arrival stream.
func facilitySeed(load float64) int64 { return 20180521 + int64(load*100+0.5) }

// facilityPointName names one grid point, e.g. "fig-facility/backfill/load140".
func facilityPointName(family string, pol sched.FacilityPolicy, load float64) string {
	return fmt.Sprintf("%s/%s/load%d", family, pol, int(load*100+0.5))
}

// registerFigFacility registers the canonical 1000-job family.
func registerFigFacility() {
	registerFacilityFamily("fig-facility",
		"Facility simulation: 1000-job arrival streams vs queue policy (§II-A batch system, ref [5])",
		facilityJobs)
}

// registerFacility10k registers the 10x stream: 10000 jobs per grid point.
// The long stream spends most of its span in queueing steady state, so the
// policy gaps it pins are sharper than the 1000-job family's. Each point
// runs its jobs as callbacks on one kernel.
func registerFacility10k() {
	registerFacilityFamily("facility-10k",
		"Facility simulation, 10x stream: 10000-job arrivals vs queue policy",
		10*facilityJobs)
}

func registerFacilityFamily(family, title string, jobs int) {
	e := Experiment{
		Name:    family,
		Title:   title,
		Version: 1,
		Grid: fmt.Sprintf("{fcfs, backfill, malleable} x load {0.7, 1.4}, %d jobs per stream on a %d+%d-node machine",
			jobs, sched.FacilityClusterNodes, sched.FacilityBoosterNodes),
		Profile: fmt.Sprintf("facility-%d", jobs),
		Tolerance: map[string]float64{
			"*": 0.02,
		},
		// Measured at load 1.4 (overload), where policy differences dominate.
		// These floors are the scheduling claims; blessing cannot relax them —
		// a scheduler change that erodes what backfill or malleability buys
		// fails diff until the bounds themselves are revised.
		Budgets: []Budget{
			// Conservative backfill cuts the mean wait ~1.5x under overload.
			{Measure: "backfill_wait_gain", Kind: MinBudget, Bound: 1.2},
			// ...and tail slowdown with it: p95 BSLD drops ~1.5x.
			{Measure: "backfill_bsld_gain", Kind: MinBudget, Bound: 1.2},
			// Malleable-shrink converts queue time into Cluster utilization
			// (~1.6x over rigid backfill) by starting wide jobs narrow.
			{Measure: "malleable_util_gain", Kind: MinBudget, Bound: 1.2},
			// ...and it must actually shrink a meaningful share of the
			// malleable jobs, not degenerate into plain backfill.
			{Measure: "malleable_shrunk", Kind: MinBudget, Bound: 50},
			// The overloaded Booster pool stays near-saturated under backfill.
			{Measure: "backfill_util_booster", Kind: MinBudget, Bound: 0.9},
			// Every stream must complete end to end on one kernel.
			{Measure: "min_jobs", Kind: MinBudget, Bound: float64(jobs)},
			// At light load the facility is healthy: mean bounded slowdown
			// stays near 1 for every policy.
			{Measure: "light_load_bsld_mean", Kind: MaxBudget, Bound: 2.5},
			// Virtual-time ceiling across the grid: the family must stay a
			// CI-speed miniature. The overloaded stream's span grows linearly
			// with its length, so the ceiling scales with the job count.
			{Measure: "max_makespan_s", Kind: MaxBudget, Bound: 300 * float64(jobs) / facilityJobs},
		},
	}
	registerResultSet(e, func() ([]sweep.Scenario, error) {
		var scen []sweep.Scenario
		for _, pol := range sched.FacilityPolicies() {
			for _, load := range facilityLoads() {
				p := sched.FacilityParams{Policy: pol, Jobs: jobs, Load: load, Seed: facilitySeed(load)}
				scen = append(scen, sweep.FacilityPoint{FacilityParams: p}.Scenario(facilityPointName(family, pol, load)))
			}
		}
		return scen, nil
	}, func(rs sweep.ResultSet) (map[string]string, map[string]float64) {
		measures := sweepMeasures(rs)
		at := func(pol sched.FacilityPolicy, load float64, metric string) float64 {
			return resultMetric(rs, facilityPointName(family, pol, load), metric)
		}
		// Derived claims, all at the overload point unless noted.
		measures["backfill_wait_gain"] = at(sched.FacilityFCFS, 1.4, "wait_mean_s") / at(sched.FacilityBackfill, 1.4, "wait_mean_s")
		measures["backfill_bsld_gain"] = at(sched.FacilityFCFS, 1.4, "bsld_p95") / at(sched.FacilityBackfill, 1.4, "bsld_p95")
		measures["malleable_util_gain"] = at(sched.FacilityMalleable, 1.4, "util_cluster") / at(sched.FacilityBackfill, 1.4, "util_cluster")
		measures["malleable_shrunk"] = at(sched.FacilityMalleable, 1.4, "shrunk")
		measures["backfill_util_booster"] = at(sched.FacilityBackfill, 1.4, "util_booster")
		minJobs := float64(jobs)
		lightBSLD := 0.0
		for _, pol := range sched.FacilityPolicies() {
			for _, load := range facilityLoads() {
				if j := at(pol, load, "jobs"); j < minJobs {
					minJobs = j
				}
			}
			if b := at(pol, 0.7, "bsld_mean"); b > lightBSLD {
				lightBSLD = b
			}
		}
		measures["min_jobs"] = minJobs
		measures["light_load_bsld_mean"] = lightBSLD
		meta := map[string]string{
			"profile":  e.Profile,
			"workload": "seeded exponential arrivals over the xpic catalog job mix; same stream per load across policies",
			"grid":     "see internal/exp/facility.go; derived measures bind the load=1.4 points",
		}
		return meta, measures
	})
}
