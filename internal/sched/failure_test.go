package sched

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// testCkpt is a free checkpoint every `every` of work: killed attempts keep
// everything up to the last multiple. It keeps scenario tests independent
// of internal/resilience (which sits above sched) while guaranteeing
// forward progress under arbitrarily harsh MTBF.
type testCkpt struct{ every vclock.Time }

func (c testCkpt) AttemptRuntime(work vclock.Time, resumed bool) vclock.Time { return work }

func (c testCkpt) Rewind(elapsed vclock.Time, resumed bool) (surviving, lost vclock.Time) {
	surv := vclock.Time(math.Floor(elapsed.Seconds()/c.every.Seconds())) * c.every
	return surv, elapsed - surv
}

// capacityOracle builds an audit hook that re-derives the conservation
// invariant from scratch at every capacity-changing fault event:
//
//	free + allocated-to-running + failed == total, per module
//
// A requeued job must therefore never hold nodes twice — a double grant
// would push the allocated sum past total. Violations are collected rather
// than fatal (the hook runs on kernel goroutines).
func capacityOracle(totalC, totalB int) (func(q *queueRun, now vclock.Time, where string), *[]string) {
	var violations []string
	return func(q *queueRun, now vclock.Time, where string) {
		allocC, allocB := 0, 0
		for _, r := range q.running {
			allocC += r.grantedC
			allocB += r.grantedB
		}
		failedC := q.faults.pools[machine.Cluster].failed
		failedB := q.faults.pools[machine.Booster].failed
		if got := q.freeC + allocC + failedC; got != totalC {
			violations = append(violations, fmt.Sprintf(
				"t=%v %s: cluster %d free + %d allocated + %d failed = %d, want %d",
				now, where, q.freeC, allocC, failedC, got, totalC))
		}
		if got := q.freeB + allocB + failedB; got != totalB {
			violations = append(violations, fmt.Sprintf(
				"t=%v %s: booster %d free + %d allocated + %d failed = %d, want %d",
				now, where, q.freeB, allocB, failedB, got, totalB))
		}
		seen := map[*qjob]bool{}
		for _, r := range q.running {
			if seen[r] {
				violations = append(violations, fmt.Sprintf(
					"t=%v %s: job %d in running set twice", now, where, r.job.ID))
			}
			seen[r] = true
		}
	}, &violations
}

// runFaulty executes one faulty queue simulation with the oracle armed and
// fails the test on any conservation violation.
func runFaulty(t *testing.T, c, b int, jobs []Job, policy Policy, faults FacilityFaults) (Schedule, queueCounters, *faultRun) {
	t.Helper()
	audit, violations := capacityOracle(c, b)
	faults.audit = audit
	sys := machine.New(c, b)
	sched, cnt, fr, err := simulateQueueFaults(sys, jobs, policy, &faults)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range *violations {
		t.Errorf("capacity oracle: %s", v)
	}
	if fr == nil {
		t.Fatal("fault run missing")
	}
	if got := len(sched.Placed) + cnt.abandoned; got != len(jobs) {
		t.Fatalf("placed %d + abandoned %d = %d jobs accounted, submitted %d",
			len(sched.Placed), cnt.abandoned, got, len(jobs))
	}
	return sched, cnt, fr
}

// TestFaultDuringBackfillReservation: failures strike while a blocked head
// job holds a reservation and small jobs backfill around it. The scheduler
// must keep reservations consistent with the shrunken machine (repair-aware
// head-start estimates), keep backfilling, and finish every job.
func TestFaultDuringBackfillReservation(t *testing.T) {
	jobs := []Job{
		// Occupies the whole Cluster side; the fault process will kill it.
		{ID: 1, Cluster: 4, Booster: 0, Arrival: 0, Duration: sec(6)},
		// Head: needs the full machine, so it blocks with a reservation.
		{ID: 2, Cluster: 4, Booster: 4, Arrival: sec(1), Duration: sec(4)},
	}
	// Small Booster jobs keep arriving: fuel for backfilling under the
	// reservation while failures reshape it.
	for i := 0; i < 10; i++ {
		jobs = append(jobs, Job{ID: 3 + i, Cluster: 0, Booster: 1,
			Arrival: sec(0.5 * float64(i)), Duration: sec(1)})
	}
	run := func() (Schedule, queueCounters, *faultRun) {
		return runFaulty(t, 4, 4, jobs, Backfill, FacilityFaults{
			Cluster:    machine.FailureProfile{MTBF: sec(3), MTTR: sec(0.5)},
			Booster:    machine.FailureProfile{MTBF: sec(6), MTTR: sec(0.5)},
			Seed:       11,
			MaxRetries: 64,
			Rewind:     testCkpt{every: sec(0.25)},
		})
	}
	sched, cnt, _ := run()
	if cnt.failures == 0 {
		t.Fatal("no failures fired; the scenario needs faults in flight")
	}
	if cnt.backfilled == 0 {
		t.Fatal("no backfills; the scenario needs a live reservation")
	}
	if cnt.requeues == 0 {
		t.Fatal("no requeues; failures only struck idle nodes")
	}
	if cnt.abandoned != 0 {
		t.Fatalf("abandoned %d jobs with the default retry budget", cnt.abandoned)
	}
	// Determinism: the faulty simulation replays byte-identically.
	sched2, cnt2, _ := run()
	if !reflect.DeepEqual(sched, sched2) || !reflect.DeepEqual(cnt, cnt2) {
		t.Fatal("faulty backfill run is not deterministic across replays")
	}
}

// TestFaultRepairWhileQueueDrained: a node fails while the queue is
// completely empty (no pending, no running jobs) and repairs before the
// next arrival. The repair must restore capacity so a later full-machine
// job starts on time — and neither event may disturb the drained queue.
func TestFaultRepairWhileQueueDrained(t *testing.T) {
	jobs := []Job{
		{ID: 1, Cluster: 1, Booster: 1, Arrival: 0, Duration: sec(0.3)},
		// Long gap: the queue drains, then the failure and its repair fire
		// into the idle facility.
		{ID: 2, Cluster: 2, Booster: 2, Arrival: sec(5), Duration: sec(1)},
	}
	sched, cnt, fr := runFaulty(t, 2, 2, jobs, Backfill, FacilityFaults{
		Cluster:     machine.FailureProfile{MTBF: sec(1), MTTR: sec(0.2)},
		Seed:        3,
		MaxFailures: 1,
	})
	if cnt.failures != 1 || cnt.repairs != 1 {
		t.Fatalf("failures=%d repairs=%d, want exactly one of each", cnt.failures, cnt.repairs)
	}
	if cnt.requeues != 0 {
		t.Fatalf("requeues=%d: the failure must have struck an idle node", cnt.requeues)
	}
	byID := map[int]Placed{}
	for _, p := range sched.Placed {
		byID[p.Job.ID] = p
	}
	// The full-machine job proves the repaired node really returned: with
	// any node still down it could not start at all.
	if got := byID[2].Start; got != sec(5) {
		t.Fatalf("full-machine job started at %v, want its arrival (5s)", got)
	}
	if fr.pools[machine.Cluster].failed != 0 {
		t.Fatalf("%d cluster nodes still marked failed after repair", fr.pools[machine.Cluster].failed)
	}
}

// TestFaultRetryExhaustionAbandonment: under an MTBF far below the job's
// runtime and no checkpointing, every attempt is killed; once the retry
// budget is spent the job must be abandoned — and the simulation must still
// terminate with its capacity accounting intact.
func TestFaultRetryExhaustionAbandonment(t *testing.T) {
	jobs := []Job{
		{ID: 1, Cluster: 2, Booster: 2, Arrival: 0, Duration: sec(10)},
	}
	sched, cnt, fr := runFaulty(t, 2, 2, jobs, FCFS, FacilityFaults{
		Cluster:     machine.FailureProfile{MTBF: sec(0.2), MTTR: sec(0.05)},
		Booster:     machine.FailureProfile{MTBF: sec(0.2), MTTR: sec(0.05)},
		Seed:        5,
		MaxRetries:  2,
		MaxFailures: 64, // bounded: the stream must die from retry exhaustion first
	})
	if len(sched.Placed) != 0 {
		t.Fatalf("%d jobs completed under a fatal MTBF", len(sched.Placed))
	}
	if cnt.abandoned != 1 {
		t.Fatalf("abandoned=%d, want 1", cnt.abandoned)
	}
	if cnt.requeues != 2 {
		t.Fatalf("requeues=%d, want the full retry budget (2)", cnt.requeues)
	}
	if cnt.failures < 3 {
		t.Fatalf("failures=%d, want at least one per attempt (3)", cnt.failures)
	}
	if cnt.lostNodeSec <= 0 {
		t.Fatal("no lost node-seconds recorded for the killed attempts")
	}
	if fr.horizon <= 0 {
		t.Fatal("fault run recorded no horizon")
	}
}

// TestFacilityRejectsNonFiniteFaults: a NaN MTBF, MTTR or requeue delay
// must end the run in a reported error. A NaN MTTR used to schedule repairs
// at NaN instants, and the run never finished.
func TestFacilityRejectsNonFiniteFaults(t *testing.T) {
	ok := machine.FailureProfile{MTBF: 5, MTTR: 1.5}
	nan := vclock.Time(math.NaN())
	for name, f := range map[string]FacilityFaults{
		"mtbf":          {Cluster: machine.FailureProfile{MTBF: nan, MTTR: 1.5}, Booster: ok},
		"mttr":          {Cluster: ok, Booster: machine.FailureProfile{MTBF: 5, MTTR: nan}},
		"requeue_delay": {Cluster: ok, Booster: ok, RequeueDelay: nan},
		"infinite_mttr": {Cluster: machine.FailureProfile{MTBF: 5, MTTR: vclock.Time(math.Inf(1))}, Booster: ok},
	} {
		p := FacilityParams{Policy: FacilityBackfill, Jobs: 50, Load: 1.4, Seed: 1, Faults: &f}
		if _, err := RunFacility(p); err == nil {
			t.Errorf("%s: non-finite fault parameter accepted", name)
		}
	}
}
