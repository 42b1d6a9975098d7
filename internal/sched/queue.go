package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"clusterbooster/internal/engine"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// Job is a batch job request.
type Job struct {
	ID      int
	Name    string
	Cluster int // requested cluster nodes
	Booster int // requested booster nodes
	Arrival vclock.Time
	// Duration is the (assumed exact) runtime once started. A real system
	// works with estimates; the simulation keeps it simple and exact.
	Duration vclock.Time
	// Malleable jobs may start with fewer nodes, down to the given minima
	// (ref [5]); runtime stretches proportionally to the largest shrink
	// factor across modules.
	Malleable  bool
	MinCluster int
	MinBooster int
}

// Policy selects the queue discipline.
type Policy int

const (
	// FCFS starts jobs strictly in arrival order; a blocked head blocks the
	// queue.
	FCFS Policy = iota
	// Backfill is FCFS with conservative backfilling: later jobs may jump
	// ahead if they fit in the current hole without delaying the head job's
	// earliest possible start.
	Backfill
)

// Placed describes one scheduled job.
type Placed struct {
	Job     Job
	Start   vclock.Time
	End     vclock.Time
	Cluster int // granted nodes (may be < requested for malleable jobs)
	Booster int
}

// Wait returns the job's queue wait time.
func (p Placed) Wait() vclock.Time { return p.Start - p.Job.Arrival }

// Schedule is the outcome of a queue simulation.
type Schedule struct {
	Placed   []Placed
	Makespan vclock.Time
}

// AverageWait returns the mean queue wait across jobs.
func (s Schedule) AverageWait() vclock.Time {
	if len(s.Placed) == 0 {
		return 0
	}
	var sum vclock.Time
	for _, p := range s.Placed {
		sum += p.Wait()
	}
	return sum / vclock.Time(len(s.Placed))
}

// Utilisation returns node-time used divided by node-time available over the
// makespan, for one module of the machine sys the schedule ran on.
func (s Schedule) Utilisation(sys *machine.System, mod machine.Module) float64 {
	total := float64(sys.NodeCount(mod)) * s.Makespan.Seconds()
	if total == 0 {
		return 0
	}
	var used float64
	for _, p := range s.Placed {
		n := p.Cluster
		if mod == machine.Booster {
			n = p.Booster
		}
		used += float64(n) * (p.End - p.Start).Seconds()
	}
	return used / total
}

// event tracks node release times during head-start estimation.
type event struct {
	at      vclock.Time
	cluster int
	booster int
}

// pendingJob is one entry of the pending queue: the job plus a copy of its
// full-size demand, so the backfill scan reads a contiguous array of values
// instead of dereferencing every waiting job.
type pendingJob struct {
	cluster int
	booster int
	dur     vclock.Time
	j       *qjob
}

// demandClass is one distinct full-size (cluster, booster) demand seen in
// the pending queue, with the durations of the jobs waiting under it in
// ascending order. A class whose jobs have all left keeps its (empty) slot
// and its buffer, so a queue that drains and refills allocates nothing.
type demandClass struct {
	cluster int
	booster int
	durs    []vclock.Time
}

// qjob is one job's live state inside a kernel queue run.
type qjob struct {
	job Job

	grantedC   int
	grantedB   int
	start, end vclock.Time

	// A job may run several attempts when the run has faults: node failures
	// revoke its allocation, rewind its progress to the best surviving
	// checkpoint and requeue it. A failure-free job runs exactly one.
	work     vclock.Time // remaining nominal (unstretched) work
	stretch  float64     // current attempt's malleable stretch factor
	resumed  bool        // next attempt restores from a checkpoint
	retries  int         // revocations suffered so far
	gen      int         // attempt generation; retires stale completions
	done     bool        // completed (terminal)
	salvaged float64     // checkpointed node-seconds carried across attempts
}

// queueCounters aggregates one queue run's scheduler activity; the totals
// feed the process-wide Stats and the facility metrics.
type queueCounters struct {
	submitted  int
	started    int
	backfilled int
	shrunk     int
	peakQueue  int // high-water mark of jobs waiting in the queue
	// Backfill cost: passes run, passes that scanned the queue (the rest
	// were proven grantless by the demand index) and queue entries those
	// scans visited.
	bfPasses  int
	bfScans   int
	bfScanned int
	// Fault-mode activity (zero on failure-free runs).
	failures    int
	repairs     int
	requeues    int
	abandoned   int
	lostNodeSec float64
}

// queueRun is the scheduler state of one kernel queue simulation. Every
// field is kernel state: it is only ever touched from the run's kernel
// callbacks, which execute one at a time holding the engine baton, so it
// needs no lock.
type queueRun struct {
	policy Policy
	freeC  int
	freeB  int

	pending []pendingJob // arrived, waiting for a grant, in arrival order
	// classes indexes pending by demand: every pending entry's duration is
	// in its class, and nothing else is. enqueue, the head pop in dispatch
	// and a backfill grant keep it in step with pending.
	classes []demandClass
	running []*qjob // granted, not yet completed
	evs     []event // headStartEstimate's release-event buffer

	sched Schedule
	cnt   queueCounters

	eng *engine.Engine
	// driver is the run's one task. It parks until the last job is done or
	// abandoned (open counts the jobs that are neither), which keeps the
	// kernel running and lets its deadlock detector report a queue that
	// stops making progress.
	driver *engine.Task
	open   int

	// faults, when non-nil, switches the run into fault mode: failure/repair
	// events drain and refill the pools, grants are revocable between grant
	// and completion, and killed jobs are rewound and requeued.
	faults *faultRun
}

// SimulateQueue schedules the jobs (sorted by arrival) under the policy on
// the machine sys and returns the resulting schedule. It reads only sys's
// node count per module.
//
// The run is a chain of callbacks on one event kernel: an arrival enqueues
// its job and re-runs the policy, a grant takes the job's nodes and
// schedules its completion, and a completion returns the nodes and re-runs
// the policy. One driver task parks for the whole run. If the queue can
// make no progress (head blocked, nothing running) the kernel's deadlock
// detector fails the driver and the error surfaces here.
func SimulateQueue(sys *machine.System, jobs []Job, policy Policy) (Schedule, error) {
	sched, _, err := simulateQueue(sys, jobs, policy)
	return sched, err
}

// simulateQueue is SimulateQueue plus the scheduler activity counters the
// facility layer reports.
func simulateQueue(sys *machine.System, jobs []Job, policy Policy) (Schedule, queueCounters, error) {
	sched, cnt, _, err := simulateQueueFaults(sys, jobs, policy, nil)
	return sched, cnt, err
}

// simulateQueueFaults is simulateQueue with an optional machine-level
// failure/repair process (nil or disabled faults run failure-free). The
// returned faultRun carries the availability and occupancy integrals of a
// faulty run (nil otherwise).
func simulateQueueFaults(sys *machine.System, jobs []Job, policy Policy, faults *FacilityFaults) (Schedule, queueCounters, *faultRun, error) {
	totalC := sys.NodeCount(machine.Cluster)
	totalB := sys.NodeCount(machine.Booster)
	for _, j := range jobs {
		needC, needB := j.Cluster, j.Booster
		if j.Malleable {
			needC, needB = j.MinCluster, j.MinBooster
		}
		if needC > totalC || needB > totalB {
			return Schedule{}, queueCounters{}, nil, fmt.Errorf("sched: job %d (%s) can never run: needs %d/%d of %d/%d nodes",
				j.ID, j.Name, needC, needB, totalC, totalB)
		}
	}
	if faults != nil {
		if err := faults.Validate(); err != nil {
			return Schedule{}, queueCounters{}, nil, err
		}
	}
	queue := append([]Job(nil), jobs...)
	sort.SliceStable(queue, func(i, j int) bool { return queue[i].Arrival < queue[j].Arrival })

	eng := engine.New()
	q := &queueRun{policy: policy, freeC: totalC, freeB: totalB, eng: eng, open: len(queue)}
	first, last := vclock.Time(0), vclock.Time(0)
	if n := len(queue); n > 0 {
		first, last = queue[0].Arrival, queue[n-1].Arrival
		q.sched.Placed = make([]Placed, 0, n) // one entry per job unless faults requeue it
	}
	q.driver = eng.NewTask("queue")
	q.driver.StartAt(first)
	if faults != nil && faults.Enabled() {
		q.faults = newFaultRun(*faults, q, totalC, totalB)
		q.faults.start(last)
	}
	for _, j := range queue {
		qj := &qjob{job: j, work: j.Duration, stretch: 1}
		eng.CallAt(j.Arrival, func() { q.arrive(qj) })
	}
	var err error
	go q.drive(&err)
	eng.Run()
	eng.Recycle()
	if f := q.faults; f != nil {
		q.cnt.failures = f.failures
		q.cnt.repairs = f.repaired
		q.cnt.requeues = f.requeues
		q.cnt.abandoned = f.abandoned
		q.cnt.lostNodeSec = f.lostNodeSec
	}
	noteQueueRun(q.cnt)
	if err != nil {
		return Schedule{}, queueCounters{}, nil, err
	}
	return q.sched, q.cnt, q.faults, nil
}

// drive is the driver task: it parks until no job is open. Kernel poison
// (deadlock: the head can never start, nothing is running and no event is
// pending) is recovered into the run's error.
func (q *queueRun) drive(errp *error) {
	t := q.driver
	defer t.Exit()
	defer func() {
		if r := recover(); r != nil {
			*errp = fmt.Errorf("sched: queue stalled with %d jobs open: %v", q.open, r)
		}
	}()
	t.WaitStart()
	for q.open > 0 {
		t.Park()
	}
}

// arrive is a job's arrival event: the job joins the back of the queue and
// the policy re-runs.
func (q *queueRun) arrive(j *qjob) {
	q.enqueue(j)
	q.cnt.submitted++
	q.dispatch(j.job.Arrival)
}

// retire counts a job out for good (done or abandoned) at virtual time at;
// the last one wakes the driver, which ends the run.
func (q *queueRun) retire(at vclock.Time) {
	q.open--
	if q.open == 0 {
		q.driver.WakeAt(at)
	}
}

// enqueue appends j to the back of the pending queue.
func (q *queueRun) enqueue(j *qjob) {
	e := pendingJob{cluster: j.job.Cluster, booster: j.job.Booster, dur: j.job.Duration, j: j}
	q.pending = append(q.pending, e)
	if n := len(q.pending); n > q.cnt.peakQueue {
		q.cnt.peakQueue = n
	}
	c := q.class(e.cluster, e.booster)
	if c == nil {
		q.classes = append(q.classes, demandClass{cluster: e.cluster, booster: e.booster})
		c = &q.classes[len(q.classes)-1]
	}
	c.durs = slices.Insert(c.durs, upperBound(c.durs, e.dur), e.dur)
}

// unindex drops a pending entry that leaves the queue from its class.
func (q *queueRun) unindex(e pendingJob) {
	c := q.class(e.cluster, e.booster)
	i := -1
	if c != nil {
		i = upperBound(c.durs, e.dur) - 1
	}
	if i < 0 || c.durs[i] != e.dur {
		panic(fmt.Sprintf("sched: job %d left the queue but is not in its demand index", e.j.job.ID))
	}
	c.durs = slices.Delete(c.durs, i, i+1)
}

// upperBound returns the number of durations in the ascending durs that are
// at most d. Inserting and deleting there keeps a class whose jobs share
// one duration (every facility class) an append and a truncation.
func upperBound(durs []vclock.Time, d vclock.Time) int {
	return sort.Search(len(durs), func(i int) bool { return durs[i] > d })
}

// class returns the index class of a full-size demand, nil if none.
func (q *queueRun) class(cluster, booster int) *demandClass {
	for k := range q.classes {
		if c := &q.classes[k]; c.cluster == cluster && c.booster == booster {
			return c
		}
	}
	return nil
}

// dispatch re-runs the queue policy at virtual time now. Under Backfill a
// blocked head is followed by one backfill pass over the rest of the queue.
func (q *queueRun) dispatch(now vclock.Time) {
	for len(q.pending) > 0 && q.tryStart(q.pending[0].j, now) {
		q.unindex(q.pending[0])
		q.pending[0] = pendingJob{}
		q.pending = q.pending[1:]
	}
	if q.policy != Backfill || len(q.pending) == 0 {
		return
	}
	q.backfill(now, func(j *qjob) { q.grant(j, j.job.Cluster, j.job.Booster, 1, now) })
}

// backfill is conservative backfill behind a blocked head at now: the head
// holds a reservation at its earliest possible start (assuming running jobs
// release on time), and a later pending job may start now, at full size
// only, iff it fits the current hole AND finishes by that reservation —
// backfilling never delays the head. Each such job is marked backfilled and
// handed to start, in queue order; start must take its nodes from the free
// pools before returning. The rest of the queue keeps its order.
//
// The demand index bounds the scan at both ends. Within a pass the pools
// only shrink and now+d is monotone in d, so the rest of the queue holds a
// grant exactly when some class that fits the pools holds a candidate (the
// head left out once) whose now+dur is within the reservation: an earlier
// entry of a class that fits now fitted when it was visited, so it was
// turned down for its duration. The pass checks this before it scans, so a
// pass that can grant nothing returns after O(classes) work, and again
// after each grant, so the scan stops at the pass's last grant. The
// reservation is computed only once a class fits, before any grant, so it
// equals one computed up front.
func (q *queueRun) backfill(now vclock.Time, start func(j *qjob)) {
	q.cnt.bfPasses++
	p := q.pending
	head := p[0]
	d, ok := q.shortestFit(head)
	if !ok {
		return
	}
	headStart := q.headStartEstimate(head.j.job, now)
	if now+d > headStart {
		return
	}
	q.cnt.bfScans++
	w, i := 1, 1
	for ; i < len(p); i++ {
		c := p[i]
		if c.cluster <= q.freeC && c.booster <= q.freeB && now+c.dur <= headStart {
			q.cnt.backfilled++
			q.unindex(c)
			start(c.j)
			if d, ok := q.shortestFit(head); !ok || now+d > headStart {
				i++ // that was the last grant: the rest is kept as it is
				break
			}
			continue
		}
		if w != i {
			p[w] = c
		}
		w++
	}
	q.cnt.bfScanned += i - 1
	w += copy(p[w:], p[i:])
	clear(p[w:])
	q.pending = p[:w]
}

// shortestFit returns the shortest duration of the jobs behind head whose
// full-size demand fits the free pools, and false if none fits.
func (q *queueRun) shortestFit(head pendingJob) (vclock.Time, bool) {
	best, ok := vclock.Time(0), false
	for k := range q.classes {
		c := &q.classes[k]
		if len(c.durs) == 0 || c.cluster > q.freeC || c.booster > q.freeB {
			continue
		}
		d := c.durs[0]
		if d == head.dur && c.cluster == head.cluster && c.booster == head.booster {
			if len(c.durs) == 1 {
				continue
			}
			d = c.durs[1]
		}
		if !ok || d < best {
			best, ok = d, true
		}
	}
	return best, ok
}

// tryStart attempts to start job j now, honouring malleability.
func (q *queueRun) tryStart(j *qjob, now vclock.Time) bool {
	if j.job.Cluster <= q.freeC && j.job.Booster <= q.freeB {
		q.grant(j, j.job.Cluster, j.job.Booster, 1, now)
		return true
	}
	if !j.job.Malleable {
		return false
	}
	gc := min(j.job.Cluster, q.freeC)
	gb := min(j.job.Booster, q.freeB)
	if gc < j.job.MinCluster || gb < j.job.MinBooster {
		return false
	}
	stretch := 1.0
	if j.job.Cluster > 0 && gc > 0 {
		stretch = max(stretch, float64(j.job.Cluster)/float64(gc))
	}
	if j.job.Booster > 0 && gb > 0 {
		stretch = max(stretch, float64(j.job.Booster)/float64(gb))
	}
	q.grant(j, gc, gb, stretch, now)
	return true
}

// grant starts one attempt of j now on gc/gb nodes. The runtime is the
// remaining work stretched by the shrink factor, plus, in fault mode, the
// rewind policy's checkpoint/restore overhead. The completion is a
// generation-guarded callback, so a revocation in between can retire it.
//
// A failure-free grant is irrevocable, so it records the placement at once.
// A faulty run records it at completion instead.
func (q *queueRun) grant(j *qjob, gc, gb int, stretch float64, now vclock.Time) {
	f := q.faults
	dur := vclock.Time(j.work.Seconds() * stretch)
	if f != nil {
		f.snap(now)
		dur = f.attemptRuntime(dur, j.resumed)
	}
	j.grantedC, j.grantedB = gc, gb
	j.stretch = stretch
	j.start, j.end = now, now+dur
	if gc < j.job.Cluster || gb < j.job.Booster {
		q.cnt.shrunk++
	}
	q.freeC -= gc
	q.freeB -= gb
	q.running = append(q.running, j)
	q.cnt.started++
	gen := j.gen
	q.eng.CallAt(j.end, func() { q.complete(j, gen) })
	if f == nil {
		q.place(j)
		return
	}
	f.audit(now, "grant")
}

// complete finishes j's current attempt, unless a revocation retired it
// (generation mismatch): the nodes return to the pools and the policy
// re-runs. A faulty job enters the schedule only now, so Start is the final
// attempt's start and waits and slowdowns include every requeue.
func (q *queueRun) complete(j *qjob, gen int) {
	if gen != j.gen || j.done {
		return // a failure revoked this attempt before it finished
	}
	f := q.faults
	at := j.end
	if f != nil {
		f.snap(at)
	}
	j.done = true
	j.work = 0
	q.freeC += j.grantedC
	q.freeB += j.grantedB
	q.removeRunning(j)
	if f != nil {
		q.place(j)
		f.audit(at, "complete")
	}
	q.retire(at)
	q.dispatch(at)
}

// place records j's current attempt in the schedule.
func (q *queueRun) place(j *qjob) {
	p := Placed{Job: j.job, Start: j.start, End: j.end, Cluster: j.grantedC, Booster: j.grantedB}
	q.sched.Placed = append(q.sched.Placed, p)
	if j.end > q.sched.Makespan {
		q.sched.Makespan = j.end
	}
}

// removeRunning drops a completed job from the running set.
func (q *queueRun) removeRunning(j *qjob) {
	for i, r := range q.running {
		if r == j {
			last := len(q.running) - 1
			q.running[i] = q.running[last]
			q.running[last] = nil
			q.running = q.running[:last]
			return
		}
	}
}

// headStartEstimate computes when the head job could start if released
// resources accumulate on schedule: the earliest release instant at which
// the free pools plus everything released by then cover the head at full
// size. Equal release instants may come out of the sort in any order; the
// accumulated pools first cover the head at the same instant either way.
//
// In fault mode the scheduled repairs count as capacity-return events too:
// reservations are recomputed against the shrunken pools, but a head that
// needs more than the currently operational machine still gets a finite
// reservation at the repair instants (every failed node has exactly one
// pending repair, so free + running + repairs always covers the full machine
// and the unreachable sentinel stays unreachable). The estimate remains a
// heuristic under faults — future failures are unknowable — which
// conservative backfill tolerates: a late head start delays backfilled jobs,
// never strands them.
func (q *queueRun) headStartEstimate(head Job, now vclock.Time) vclock.Time {
	c, b := q.freeC, q.freeB
	if head.Cluster <= c && head.Booster <= b {
		return now
	}
	evs := q.evs[:0]
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
	q.evs = evs
	slices.SortFunc(evs, func(x, y event) int { return cmp.Compare(x.at, y.at) })
	for _, e := range evs {
		c += e.cluster
		b += e.booster
		if head.Cluster <= c && head.Booster <= b {
			return e.at
		}
	}
	return vclock.Never // unreachable for valid jobs
}
