package sched

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"clusterbooster/internal/engine"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// sec converts to virtual seconds tersely.
func sec(s float64) vclock.Time { return vclock.Time(s) }

// TestBackfillReservationInvariant pins the conservative-backfill guarantee
// on the kernel: a continuous stream of small jobs must never delay the
// blocked head job past its reservation (the earliest start assuming
// running jobs release on time) — EASY-style aggressive backfill would
// starve it, conservative backfill must not.
func TestBackfillReservationInvariant(t *testing.T) {
	sys := machine.New(4, 4)
	jobs := []Job{
		// Occupies the whole Cluster side until t=10.
		{ID: 1, Cluster: 4, Booster: 0, Arrival: 0, Duration: sec(10)},
		// Head: needs the full machine; reservation at t=10.
		{ID: 2, Cluster: 4, Booster: 4, Arrival: sec(1), Duration: sec(10)},
	}
	// A small Booster job arrives every second; those finishing by t=10
	// backfill, the t=9 arrival (9+2 > 10) must wait behind the head.
	for i := 0; i < 9; i++ {
		jobs = append(jobs, Job{ID: 3 + i, Cluster: 0, Booster: 1,
			Arrival: sec(float64(1 + i)), Duration: sec(2)})
	}
	sched, cnt, _, err := simulateQueueFaults(sys, jobs, Backfill, nil)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int]Placed{}
	for _, p := range sched.Placed {
		byID[p.Job.ID] = p
	}
	if got := byID[2].Start; got != sec(10) {
		t.Fatalf("head started at %v, reservation was 10s", got)
	}
	for i := 3; i <= 10; i++ { // arrivals t=1..8 fit before the reservation
		if got := byID[i].Start; got != jobs[i-1].Arrival {
			t.Fatalf("job %d backfilled at %v, want its arrival %v", i, got, jobs[i-1].Arrival)
		}
	}
	// The t=9 arrival would overrun the reservation: it waits for the head.
	if got := byID[11].Start; got != sec(20) {
		t.Fatalf("late small job started at %v, want 20s (after the head)", got)
	}
	if cnt.backfilled != 8 {
		t.Fatalf("backfilled = %d, want 8", cnt.backfilled)
	}
}

// TestMalleableShrinkBelowMinimumRejected: a malleable job must wait rather
// than start below its minima.
func TestMalleableShrinkBelowMinimumRejected(t *testing.T) {
	sys := machine.New(8, 8)
	jobs := []Job{
		{ID: 1, Cluster: 6, Booster: 6, Arrival: 0, Duration: sec(10)},
		{ID: 2, Cluster: 8, Booster: 8, Arrival: sec(1), Duration: sec(4),
			Malleable: true, MinCluster: 4, MinBooster: 4},
	}
	sched, cnt, _, err := simulateQueueFaults(sys, jobs, Backfill, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := sched.Placed[1]
	if p.Job.ID != 2 || p.Start != sec(10) {
		t.Fatalf("malleable job started at %v with 2/2 free nodes, want a wait until 10s", p.Start)
	}
	if p.Cluster != 8 || p.Booster != 8 {
		t.Fatalf("granted %d/%d after the wait, want the full 8/8", p.Cluster, p.Booster)
	}
	if cnt.shrunk != 0 {
		t.Fatalf("shrunk = %d, want 0 (below-minimum shrink must be rejected)", cnt.shrunk)
	}
}

// TestQueueDrainedTermination: the queue drains to empty between sparse
// arrivals; the kernel must idle across the gaps and terminate cleanly
// instead of tripping the deadlock detector.
func TestQueueDrainedTermination(t *testing.T) {
	sys := machine.New(2, 2)
	jobs := []Job{
		{ID: 1, Cluster: 2, Booster: 2, Arrival: 0, Duration: sec(1)},
		{ID: 2, Cluster: 2, Booster: 2, Arrival: sec(100), Duration: sec(1)},
		{ID: 3, Cluster: 2, Booster: 2, Arrival: sec(1000), Duration: sec(1)},
	}
	for _, pol := range []Policy{FCFS, Backfill} {
		sched, cnt, _, err := simulateQueueFaults(sys, jobs, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(sched.Placed) != 3 || sched.Makespan != sec(1001) {
			t.Fatalf("policy %v: placed %d jobs, makespan %v; want 3 and 1001s",
				pol, len(sched.Placed), sched.Makespan)
		}
		if cnt.peakQueue != 1 {
			t.Fatalf("policy %v: peak queue %d, want 1 (queue drains between arrivals)", pol, cnt.peakQueue)
		}
	}
}

// TestFacilityDeterminism: equal params give identical outcomes; the seed
// changes the stream.
func TestFacilityDeterminism(t *testing.T) {
	p := FacilityParams{Policy: FacilityBackfill, Jobs: 200, Load: 1.2, Seed: 7}
	a, err := RunFacility(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFacility(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same params, different outcomes:\n%+v\n%+v", a, b)
	}
	p.Seed = 8
	c, err := RunFacility(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Makespan == a.Makespan && c.MeanWait == a.MeanWait {
		t.Fatal("seed change did not change the stream")
	}
}

// TestFacilityPolicies: on one overloaded stream, backfill must not lose to
// FCFS on mean wait, the malleable policy must actually shrink jobs, and
// every policy must run the whole stream.
func TestFacilityPolicies(t *testing.T) {
	outs := map[FacilityPolicy]FacilityOutcome{}
	for _, pol := range FacilityPolicies() {
		out, err := RunFacility(FacilityParams{Policy: pol, Jobs: 400, Load: 1.4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if out.Jobs != 400 {
			t.Fatalf("%s: completed %d of 400 jobs", pol, out.Jobs)
		}
		outs[pol] = out
	}
	if outs[FacilityBackfill].Backfilled == 0 {
		t.Fatal("backfill policy never backfilled")
	}
	if outs[FacilityFCFS].Backfilled != 0 || outs[FacilityFCFS].Shrunk != 0 {
		t.Fatal("fcfs policy backfilled or shrank")
	}
	if outs[FacilityMalleable].Shrunk == 0 {
		t.Fatal("malleable policy never shrank a job")
	}
	if outs[FacilityBackfill].MeanWait > outs[FacilityFCFS].MeanWait {
		t.Fatalf("backfill mean wait %v worse than fcfs %v",
			outs[FacilityBackfill].MeanWait, outs[FacilityFCFS].MeanWait)
	}
}

// TestFacilityRejectsBadParams covers the validation surface.
func TestFacilityRejectsBadParams(t *testing.T) {
	for _, p := range []FacilityParams{
		{Policy: FacilityFCFS, Jobs: 0, Load: 1},
		{Policy: FacilityFCFS, Jobs: 10, Load: 0},
		{Policy: FacilityFCFS, Jobs: 10, Load: math.NaN()},
		{Policy: FacilityFCFS, Jobs: 10, Load: math.Inf(1)},
		{Policy: FacilityFCFS, Jobs: 10, Load: math.Inf(-1)},
		{Policy: "easy", Jobs: 10, Load: 1},
	} {
		if _, err := RunFacility(p); err == nil {
			t.Fatalf("params %+v accepted", p)
		}
	}
}

// TestFacilityThousandJobs: the acceptance-scale stream — a thousand jobs
// on one kernel — completes and keeps both pools busy.
func TestFacilityThousandJobs(t *testing.T) {
	out, err := RunFacility(FacilityParams{Policy: FacilityBackfill, Jobs: 1000, Load: 1.0, Seed: 20180521})
	if err != nil {
		t.Fatal(err)
	}
	if out.Jobs != 1000 {
		t.Fatalf("completed %d of 1000 jobs", out.Jobs)
	}
	if out.UtilCluster <= 0.3 || out.UtilBooster <= 0.3 {
		t.Fatalf("utilization %.2f/%.2f suspiciously low at load 1.0", out.UtilCluster, out.UtilBooster)
	}
}

// TestFacilityOneTaskPerRun pins the queue's kernel design: jobs are
// callbacks, not tasks. A 1000-job run registers exactly one task, the
// driver, and switches goroutines at most twice (its start and its final
// wake).
func TestFacilityOneTaskPerRun(t *testing.T) {
	before := engine.Global()
	if _, err := RunFacility(FacilityParams{Policy: FacilityBackfill, Jobs: 1000, Load: 1.4, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	after := engine.Global()
	if tasks := after.Tasks - before.Tasks; tasks != 1 {
		t.Errorf("a 1000-job run registered %d tasks, want 1", tasks)
	}
	if sw := after.Switches - before.Switches; sw > 2 {
		t.Errorf("a 1000-job run made %d goroutine switches, want at most 2", sw)
	}
}

// TestQueueStallIsAnError: a malleable job too wide for the Cluster at full
// size, whose Booster minimum exceeds its Booster request, passes the
// can-never-run check on its minima yet can never start. Once the job ahead
// of it finishes nothing is running, and the kernel's deadlock detector must
// turn that into an error instead of a hang.
func TestQueueStallIsAnError(t *testing.T) {
	sys := machine.New(4, 4)
	jobs := []Job{
		{ID: 1, Cluster: 4, Arrival: 0, Duration: sec(1)},
		{ID: 2, Cluster: 5, Booster: 1, Arrival: sec(1), Duration: sec(1),
			Malleable: true, MinCluster: 2, MinBooster: 2},
	}
	_, err := SimulateQueue(sys, jobs, FCFS)
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("stalled queue returned %v, want a stall error", err)
	}
}

// TestFacilityBackfillCounters: on the fig-facility backfill point (1000
// jobs at load 1.4, the seed the experiment derives from that load) the
// demand index proves most backfill passes grantless, so the -stats queue
// line reports more passes than scans; and the counts, like everything else
// of a run, repeat exactly.
func TestFacilityBackfillCounters(t *testing.T) {
	p := FacilityParams{Policy: FacilityBackfill, Jobs: 1000, Load: 1.4, Seed: 20180521 + 140}
	run := func() Stats {
		before := Global()
		if _, err := RunFacility(p); err != nil {
			t.Fatal(err)
		}
		after := Global()
		return Stats{
			BackfillPasses:  after.BackfillPasses - before.BackfillPasses,
			BackfillScans:   after.BackfillScans - before.BackfillScans,
			BackfillScanned: after.BackfillScanned - before.BackfillScanned,
		}
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("backfill counters differ across runs: %+v then %+v", first, second)
	}
	if first.BackfillScans == 0 || first.BackfillPasses <= first.BackfillScans || first.BackfillScanned < first.BackfillScans {
		t.Fatalf("backfill counters %+v: want passes > scans > 0 and scanned >= scans", first)
	}
	line := first.String()
	for _, field := range []string{"bf_passes=", "bf_scans=", "bf_scanned="} {
		if !strings.Contains(line, field) {
			t.Fatalf("queue stats line %q lacks %s", line, field)
		}
	}
	t.Logf("passes=%d scans=%d scanned=%d", first.BackfillPasses, first.BackfillScans, first.BackfillScanned)
}
