package sched

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// This file is the facility simulator: the whole prototype as a batch
// system under sustained multi-user load, rather than one job on an empty
// machine. A seeded synthetic arrival stream — exponential inter-arrival
// times over a job mix drawn from the xpic workload catalog's shapes — runs
// through the kernel queue under one of three policies, co-scheduling the
// Cluster and Booster pools independently (§II-A's modular reservation).
// Thousands of concurrent jobs share one event kernel; the stream is fully
// determined by (seed, jobs, load), so facility outcomes are byte-stable
// under any host parallelism.

// FacilityPolicy selects the batch discipline of a facility run.
type FacilityPolicy string

const (
	// FacilityFCFS is strict arrival order; malleability is ignored.
	FacilityFCFS FacilityPolicy = "fcfs"
	// FacilityBackfill adds conservative backfilling; malleability is
	// ignored (jobs start at full size or not at all).
	FacilityBackfill FacilityPolicy = "backfill"
	// FacilityMalleable is backfill plus malleable-shrink: flexible jobs
	// may start below requested size, down to their minima (ref [5]).
	FacilityMalleable FacilityPolicy = "malleable"
)

// FacilityPolicies lists the policies in canonical grid order.
func FacilityPolicies() []FacilityPolicy {
	return []FacilityPolicy{FacilityFCFS, FacilityBackfill, FacilityMalleable}
}

// FacilityParams configures one facility run.
type FacilityParams struct {
	Policy FacilityPolicy
	// Jobs is the length of the arrival stream.
	Jobs int
	// Load is the offered load as a fraction of the bottleneck module's
	// capacity: 0.7 is a busy facility, >1 is overload (the queue grows).
	Load float64
	// Seed determines the whole stream; equal seeds give equal arrivals
	// across policies, so policy comparisons see the identical workload.
	Seed int64
	// ClusterNodes and BoosterNodes size the machine (0 defaults to 64/32,
	// four times the 2:1 prototype of Table I).
	ClusterNodes int
	BoosterNodes int
	// Faults, when non-nil and enabled, runs the stream on a failing
	// machine: seeded per-module failure/repair processes drain and refill
	// the pools, killed jobs are rewound per Faults.Rewind and requeued.
	// Nil keeps the failure-free path byte-identical.
	Faults *FacilityFaults
}

// FacilityOutcome aggregates one facility run.
type FacilityOutcome struct {
	Jobs     int
	Makespan vclock.Time
	// UtilCluster and UtilBooster are node-time used over node-time
	// available per module, across the makespan.
	UtilCluster float64
	UtilBooster float64
	// MeanWait is the mean queue wait.
	MeanWait vclock.Time
	// MeanSlowdown and P95Slowdown are bounded slowdowns: max(1,
	// (wait+run)/max(run, tau)) with tau = 100ms, the standard BSLD metric
	// scaled to the catalog's sub-second virtual jobs.
	MeanSlowdown float64
	P95Slowdown  float64
	// Backfilled and Shrunk count scheduler decisions; PeakQueue is the
	// high-water mark of waiting jobs; Events is the kernel event count.
	Backfilled int
	Shrunk     int
	PeakQueue  int
	Events     uint64

	// Fault-mode results (zero on failure-free runs). Jobs counts completed
	// jobs only; Abandoned jobs exhausted their retry budget and never
	// finished.
	Failures  int
	Repairs   int
	Requeues  int
	Abandoned int
	// AvailCluster and AvailBooster are the simulated availabilities:
	// 1 - down-node-time / (nodes * horizon), where the horizon spans every
	// facility event. In steady state they must track the analytic
	// MTBF/(MTBF+MTTR) of the module's FailureProfile.
	AvailCluster float64
	AvailBooster float64
	// LostNodeSec is virtual node-time spent on work that did not survive:
	// partial progress past the last completed checkpoint of every kill,
	// plus the salvaged progress of jobs later abandoned.
	LostNodeSec float64
	// Goodput is completed useful work over total machine capacity across
	// the horizon: sum over completed jobs of requested-nodes x nominal
	// duration, divided by (total nodes x horizon).
	Goodput float64
	// Horizon is the full facility span including trailing repair, requeue
	// and abandonment activity (>= Makespan).
	Horizon vclock.Time
	// SatUtil* and SatAvail* are utilization and availability cut at the
	// last job arrival — the saturated window, before the stream drains.
	// There, an overloaded pool's utilization must track its availability:
	// this is the pair the steady-state cross-check budgets compare.
	SatUtilCluster  float64
	SatUtilBooster  float64
	SatAvailCluster float64
	SatAvailBooster float64
}

// bsldTau is the bounded-slowdown runtime floor. The literature uses 10s of
// wall time against hour-scale jobs; the catalog's virtual jobs run 0.4-2.4
// virtual seconds, so the threshold scales to 100ms.
const bsldTau = 100 * vclock.Millisecond

// facilityClass is one entry of the synthetic job mix. The shapes and
// runtimes are modeled on the experiment catalog: small split Cluster+
// Booster runs (fig7), Cluster-only field solves (fig3), Booster-only
// particle pushes (fig8), Table II-scale wide jobs, and xpic-weak-style
// campaigns — the last two malleable down to half size, as in the DEEP
// malleability work (ref [5]).
type facilityClass struct {
	name       string
	cluster    int
	booster    int
	dur        vclock.Time
	weight     int
	malleable  bool
	minCluster int
	minBooster int
}

func facilityClasses() []facilityClass {
	return []facilityClass{
		{name: "fig7-split", cluster: 2, booster: 2, dur: 600 * vclock.Millisecond, weight: 4},
		{name: "fig3-solver", cluster: 4, booster: 0, dur: 400 * vclock.Millisecond, weight: 3},
		{name: "fig8-push", cluster: 0, booster: 4, dur: 500 * vclock.Millisecond, weight: 3},
		{name: "table2-wide", cluster: 8, booster: 8, dur: 1200 * vclock.Millisecond, weight: 2,
			malleable: true, minCluster: 4, minBooster: 4},
		{name: "xpic-weak", cluster: 16, booster: 16, dur: 2400 * vclock.Millisecond, weight: 1,
			malleable: true, minCluster: 8, minBooster: 8},
	}
}

// facilityJobs synthesizes the arrival stream: weighted class picks and
// exponential inter-arrival gaps from one seeded source, with the arrival
// rate set so the offered load on the bottleneck module equals p.Load.
func facilityJobs(p FacilityParams) []Job {
	classes := facilityClasses()
	wsum := 0
	ec, eb := 0.0, 0.0 // mean node-seconds demanded per job, per module
	for _, c := range classes {
		wsum += c.weight
		ec += float64(c.weight) * float64(c.cluster) * c.dur.Seconds()
		eb += float64(c.weight) * float64(c.booster) * c.dur.Seconds()
	}
	ec /= float64(wsum)
	eb /= float64(wsum)
	// Offered load per module is rate*E/total; the bottleneck module is the
	// one with the larger per-job demand share.
	demand := max(ec/float64(p.ClusterNodes), eb/float64(p.BoosterNodes))
	rate := p.Load / demand

	rng := rand.New(rand.NewSource(p.Seed))
	jobs := make([]Job, 0, p.Jobs)
	var at vclock.Time
	for i := 0; i < p.Jobs; i++ {
		c := classes[0]
		pick := rng.Intn(wsum)
		for _, cand := range classes {
			if pick < cand.weight {
				c = cand
				break
			}
			pick -= cand.weight
		}
		at += vclock.Time(rng.ExpFloat64() / rate)
		j := Job{
			ID:       i + 1,
			Name:     c.name,
			Cluster:  c.cluster,
			Booster:  c.booster,
			Arrival:  at,
			Duration: c.dur,
		}
		if c.malleable && p.Policy == FacilityMalleable {
			j.Malleable = true
			j.MinCluster = c.minCluster
			j.MinBooster = c.minBooster
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// RunFacility drives the synthesized arrival stream through the kernel
// queue and aggregates the facility metrics.
func RunFacility(p FacilityParams) (FacilityOutcome, error) {
	if p.Jobs <= 0 {
		return FacilityOutcome{}, fmt.Errorf("sched: facility stream of %d jobs", p.Jobs)
	}
	if p.Load <= 0 || math.IsNaN(p.Load) || math.IsInf(p.Load, 1) {
		return FacilityOutcome{}, fmt.Errorf("sched: facility load %g", p.Load)
	}
	if p.ClusterNodes == 0 {
		p.ClusterNodes = 64
	}
	if p.BoosterNodes == 0 {
		p.BoosterNodes = 32
	}
	if p.ClusterNodes < 0 || p.BoosterNodes < 0 {
		return FacilityOutcome{}, fmt.Errorf("sched: facility machine %d/%d nodes", p.ClusterNodes, p.BoosterNodes)
	}
	policy := FCFS
	switch p.Policy {
	case FacilityFCFS:
	case FacilityBackfill, FacilityMalleable:
		policy = Backfill
	default:
		return FacilityOutcome{}, fmt.Errorf("sched: unknown facility policy %q", p.Policy)
	}

	m := NewManager(machine.New(p.ClusterNodes, p.BoosterNodes))
	sched, cnt, faults, err := m.simulateQueueFaults(facilityJobs(p), policy, p.Faults)
	if err != nil {
		return FacilityOutcome{}, err
	}

	out := FacilityOutcome{
		Jobs:        len(sched.Placed),
		Makespan:    sched.Makespan,
		UtilCluster: sched.Utilisation(m, machine.Cluster),
		UtilBooster: sched.Utilisation(m, machine.Booster),
		MeanWait:    sched.AverageWait(),
		Backfilled:  cnt.backfilled,
		Shrunk:      cnt.shrunk,
		PeakQueue:   cnt.peakQueue,
		Events:      cnt.events,
	}
	if faults != nil {
		out.Failures = cnt.failures
		out.Repairs = cnt.repairs
		out.Requeues = cnt.requeues
		out.Abandoned = cnt.abandoned
		out.LostNodeSec = cnt.lostNodeSec
		out.AvailCluster = faults.availability(machine.Cluster)
		out.AvailBooster = faults.availability(machine.Booster)
		out.SatUtilCluster = faults.satUtilisation(machine.Cluster)
		out.SatUtilBooster = faults.satUtilisation(machine.Booster)
		out.SatAvailCluster = faults.satAvailability(machine.Cluster)
		out.SatAvailBooster = faults.satAvailability(machine.Booster)
		out.Horizon = faults.horizon
		// With kills in play, schedule-derived utilisation (final attempts
		// only) undercounts occupancy; the faultRun integrates the real
		// thing, and it is what must track availability under saturation.
		out.UtilCluster = faults.utilisation(machine.Cluster)
		out.UtilBooster = faults.utilisation(machine.Booster)
		useful := 0.0
		for _, pl := range sched.Placed {
			useful += float64(pl.Job.Cluster+pl.Job.Booster) * pl.Job.Duration.Seconds()
		}
		if cap := float64(p.ClusterNodes+p.BoosterNodes) * faults.horizon.Seconds(); cap > 0 {
			out.Goodput = useful / cap
		}
	}
	slow := make([]float64, 0, len(sched.Placed))
	for _, pl := range sched.Placed {
		run := (pl.End - pl.Start).Seconds()
		resp := (pl.End - pl.Job.Arrival).Seconds()
		s := resp / max(run, bsldTau.Seconds())
		if s < 1 {
			s = 1
		}
		slow = append(slow, s)
		out.MeanSlowdown += s
	}
	if len(slow) > 0 {
		out.MeanSlowdown /= float64(len(slow))
		sort.Float64s(slow)
		idx := int(math.Ceil(0.95*float64(len(slow)))) - 1
		out.P95Slowdown = slow[idx]
	}
	return out, nil
}
