package sched

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// oracleQueue is the slice of queue-run state the reference backfill step
// reads and writes: the pending queue as the array of job pointers it was
// before pending entries carried their demand by value.
type oracleQueue struct {
	freeC   int
	freeB   int
	pending []*qjob
	running []*qjob
	cnt     queueCounters
	faults  *faultRun
	grant   func(j *qjob)
}

// backfill is the reference conservative-backfill step: the reservation is
// estimated up front, whether or not any candidate fits, and the surviving
// queue is rebuilt by appending every kept job. Only the grant call differs
// from the original, which passed the full-size demand to queueRun.grant.
func (q *oracleQueue) backfill(now vclock.Time) {
	headStart := q.headStartEstimate(q.pending[0].job, now)
	kept := q.pending[:1]
	for _, cand := range q.pending[1:] {
		if cand.job.Cluster <= q.freeC && cand.job.Booster <= q.freeB && now+cand.job.Duration <= headStart {
			q.cnt.backfilled++
			q.grant(cand)
		} else {
			kept = append(kept, cand)
		}
	}
	q.pending = kept
}

// headStartEstimate is the reference reservation: a fresh event slice per
// call, sorted with sort.Slice, and the head-fits-now check after the
// collection.
func (q *oracleQueue) headStartEstimate(head Job, now vclock.Time) vclock.Time {
	evs := make([]event, 0, len(q.running))
	for _, r := range q.running {
		evs = append(evs, event{at: r.end, cluster: r.grantedC, booster: r.grantedB})
	}
	if q.faults != nil {
		for _, r := range q.faults.repairs {
			ev := event{at: r.at}
			if r.mod == machine.Cluster {
				ev.cluster = 1
			} else {
				ev.booster = 1
			}
			evs = append(evs, ev)
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	c, b := q.freeC, q.freeB
	if head.Cluster <= c && head.Booster <= b {
		return now
	}
	for _, e := range evs {
		c += e.cluster
		b += e.booster
		if head.Cluster <= c && head.Booster <= b {
			return e.at
		}
	}
	return vclock.Time(1 << 62) // unreachable for valid jobs
}

// backfillState is one randomly drawn scheduler state at a backfill pass:
// a blocked (or occasionally fitting) head, the jobs behind it, the running
// set, pending repairs and the free pools.
type backfillState struct {
	now          vclock.Time
	freeC, freeB int
	pending      []Job
	running      []qjob // job, grantedC/B and end are set
	repairs      []repairEvent
	faulty       bool
	// overhead is what a fault-mode grant adds to the job's duration
	// (checkpoint cost): the granted attempt may outlive the backfill check.
	overhead vclock.Time
}

// drawBackfillState draws one state. Times sit on a half-second grid, so
// release instants tie with each other and candidate finishes tie with the
// reservation.
func drawBackfillState(rng *rand.Rand) backfillState {
	totalC, totalB := 1+rng.Intn(12), 1+rng.Intn(12)
	s := backfillState{now: vclock.Time(2 + rng.Intn(4))}
	grid := func(max int) vclock.Time { return s.now + vclock.Time(rng.Intn(max+1))*0.5 }

	failedC, failedB := 0, 0
	if rng.Intn(2) == 0 {
		s.faulty = true
		s.overhead = vclock.Time(rng.Intn(3)) * 0.25
		failedC, failedB = rng.Intn(totalC+1)/2, rng.Intn(totalB+1)/2
		for i := 0; i < failedC; i++ {
			s.repairs = append(s.repairs, repairEvent{at: grid(8), mod: machine.Cluster})
		}
		for i := 0; i < failedB; i++ {
			s.repairs = append(s.repairs, repairEvent{at: grid(8), mod: machine.Booster})
		}
		rng.Shuffle(len(s.repairs), func(i, j int) { s.repairs[i], s.repairs[j] = s.repairs[j], s.repairs[i] })
	}
	// Free pools anywhere from empty to everything operational.
	s.freeC = rng.Intn(totalC - failedC + 1)
	s.freeB = rng.Intn(totalB - failedB + 1)

	// Split the allocated nodes into running jobs.
	id := 1
	allocC, allocB := totalC-failedC-s.freeC, totalB-failedB-s.freeB
	for allocC > 0 || allocB > 0 {
		gc, gb := 0, 0
		if allocC > 0 {
			gc = rng.Intn(allocC + 1)
		}
		if allocB > 0 {
			gb = rng.Intn(allocB + 1)
		}
		if gc+gb == 0 {
			continue
		}
		allocC -= gc
		allocB -= gb
		s.running = append(s.running, qjob{
			job:      Job{ID: id, Cluster: gc, Booster: gb},
			grantedC: gc, grantedB: gb,
			end: grid(8),
		})
		id++
	}

	// Mixed shapes: Cluster-only, Booster-only, both, and small fillers.
	shape := func() (int, int) {
		switch rng.Intn(4) {
		case 0:
			return 1 + rng.Intn(totalC), 0
		case 1:
			return 0, 1 + rng.Intn(totalB)
		case 2:
			return 1 + rng.Intn(totalC), 1 + rng.Intn(totalB)
		default:
			return rng.Intn(2), 1 + rng.Intn(2)
		}
	}
	npending := 1 + rng.Intn(40)
	for i := 0; i < npending; i++ {
		c, b := shape()
		j := Job{ID: id, Cluster: c, Booster: b, Duration: vclock.Time(rng.Intn(9)) * 0.5}
		if rng.Intn(4) == 0 {
			j.Malleable = true
			if c > 0 {
				j.MinCluster = 1 + rng.Intn(c)
			}
			if b > 0 {
				j.MinBooster = 1 + rng.Intn(b)
			}
		}
		s.pending = append(s.pending, j)
		id++
	}
	// The dispatch that reaches backfill found its head blocked; keep a
	// few fitting heads too, for the reservation's head-fits-now branch.
	if rng.Intn(8) != 0 {
		h := &s.pending[0]
		if h.Cluster <= s.freeC && h.Booster <= s.freeB {
			if rng.Intn(2) == 0 {
				h.Cluster = s.freeC + 1
			} else {
				h.Booster = s.freeB + 1
			}
		}
	}
	return s
}

// backfillOutcome is what one backfill pass decided.
type backfillOutcome struct {
	grants       []int // job IDs in grant order
	remaining    []int // pending job IDs left, in queue order
	freeC, freeB int
	counted      int // queueCounters.backfilled
}

// grantRecorder is the kernel-free grant both passes use: it takes the full
// size from the free pools, starts the job now and logs its ID.
func grantRecorder(freeC, freeB *int, running *[]*qjob, now, overhead vclock.Time, log *[]int) func(j *qjob) {
	return func(j *qjob) {
		*freeC -= j.job.Cluster
		*freeB -= j.job.Booster
		j.grantedC, j.grantedB = j.job.Cluster, j.job.Booster
		j.start, j.end = now, now+j.job.Duration+overhead
		*running = append(*running, j)
		*log = append(*log, j.job.ID)
	}
}

// instantiate builds fresh job records for the state and returns the
// pending and running sets over them.
func (s backfillState) instantiate() (pending, running []*qjob) {
	for i := range s.running {
		r := s.running[i]
		running = append(running, &r)
	}
	for _, j := range s.pending {
		pending = append(pending, &qjob{job: j, work: j.Duration, stretch: 1})
	}
	return pending, running
}

// faultRun carries the state's pending repairs, the only fault-mode state
// the reservation reads.
func (s backfillState) faultRun() *faultRun {
	if !s.faulty {
		return nil
	}
	return &faultRun{repairs: append([]repairEvent(nil), s.repairs...)}
}

// outcome collects a finished pass into its comparable form.
func outcome(grants []int, pending []*qjob, freeC, freeB, counted int) backfillOutcome {
	o := backfillOutcome{grants: grants, freeC: freeC, freeB: freeB, counted: counted}
	for _, j := range pending {
		o.remaining = append(o.remaining, j.job.ID)
	}
	return o
}

// runOracleBackfill runs the reference step on the state.
func runOracleBackfill(s backfillState) backfillOutcome {
	pending, running := s.instantiate()
	q := &oracleQueue{freeC: s.freeC, freeB: s.freeB, pending: pending, running: running, faults: s.faultRun()}
	var grants []int
	q.grant = grantRecorder(&q.freeC, &q.freeB, &q.running, s.now, s.overhead, &grants)
	q.backfill(s.now)
	return outcome(grants, q.pending, q.freeC, q.freeB, q.cnt.backfilled)
}

// runQueueBackfill runs queueRun.backfill on the state. The queue is built
// with enqueue, so the entries carry their demand exactly as in a run.
func runQueueBackfill(t *testing.T, s backfillState) backfillOutcome {
	pending, running := s.instantiate()
	q := &queueRun{policy: Backfill, freeC: s.freeC, freeB: s.freeB, running: running, faults: s.faultRun()}
	for _, j := range pending {
		q.enqueue(j)
	}
	var grants []int
	q.backfill(s.now, grantRecorder(&q.freeC, &q.freeB, &q.running, s.now, s.overhead, &grants))
	left := make([]*qjob, len(q.pending))
	for i, e := range q.pending {
		if e.j == nil || e.cluster != e.j.job.Cluster || e.booster != e.j.job.Booster || e.dur != e.j.job.Duration {
			t.Fatalf("pending entry %d does not carry its job's demand: %+v", i, e)
		}
		left[i] = e.j
	}
	for i, e := range q.pending[len(q.pending):cap(q.pending)] {
		if e.j != nil {
			t.Fatalf("compacted tail entry %d still holds job %d", i, e.j.job.ID)
		}
	}
	return outcome(grants, left, q.freeC, q.freeB, q.cnt.backfilled)
}

// TestBackfillMatchesOracle drives the reference backfill step and
// queueRun.backfill from the same seeded random states and requires the
// same grants in the same order and the same surviving queue order.
func TestBackfillMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20180521))
	states := 20000
	if testing.Short() {
		states = 4000
	}
	var granting, fitless, tied, faultyGrants int
	for n := 0; n < states; n++ {
		s := drawBackfillState(rng)
		want := runOracleBackfill(s)
		got := runQueueBackfill(t, s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("state %d (%+v):\nqueueRun.backfill %+v\noracle            %+v", n, s, got, want)
		}
		fits := false
		for _, j := range s.pending[1:] {
			fits = fits || j.Cluster <= s.freeC && j.Booster <= s.freeB
		}
		if !fits {
			fitless++
		}
		if len(want.grants) == 0 {
			continue
		}
		granting++
		if s.faulty && s.overhead > 0 && len(want.grants) > 1 {
			faultyGrants++
		}
		// A grant finishing exactly at the reservation is the boundary the
		// <= admits.
		headStart := runOracleHeadStart(s)
		for _, j := range s.pending {
			if slices.Contains(want.grants, j.ID) && s.now+j.Duration == headStart {
				tied++
			}
		}
	}
	// The draw must reach every regime, or the agreement says little.
	if granting < states/10 || fitless < states/10 || tied == 0 || faultyGrants == 0 {
		t.Fatalf("weak coverage over %d states: %d granting, %d fitless, %d reservation ties, %d multi-grant faulty passes",
			states, granting, fitless, tied, faultyGrants)
	}
	t.Logf("%d states: %d granting, %d fitless, %d reservation ties, %d multi-grant faulty passes",
		states, granting, fitless, tied, faultyGrants)
}

// runOracleHeadStart is the reference reservation of the state's head.
func runOracleHeadStart(s backfillState) vclock.Time {
	pending, running := s.instantiate()
	q := &oracleQueue{freeC: s.freeC, freeB: s.freeB, pending: pending, running: running, faults: s.faultRun()}
	return q.headStartEstimate(pending[0].job, s.now)
}
