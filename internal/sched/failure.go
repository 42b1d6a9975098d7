package sched

import (
	"fmt"
	"math"
	"math/rand"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// This file is the facility-level failure/repair subsystem: seeded per-module
// failure processes drawn as kernel events (like psmpi's FailureInjector, but
// facility-wide and with repair), scheduler degradation when nodes die, and
// checkpoint-aware requeue of the jobs that were holding them.
//
// The model is the classic machine-repairman Markov chain, per module: every
// operational node fails with rate 1/MTBF, every failed node repairs
// independently with rate 1/MTTR. Both processes are exponential, so whenever
// the operational count changes the time to the next failure is simply
// redrawn at the new rate (memorylessness makes the redraw exact, not an
// approximation); a per-module generation counter retires the superseded
// draw. In steady state the model's availability is MTBF/(MTBF+MTTR) — the
// Beowulf-performability closed form the experiment budgets cross-check.
//
// Everything runs on the queue run's serial kernel: failures, repairs,
// revocations, requeues and completions are CallAt callbacks that execute
// holding the engine baton, so — like the rest of queueRun — the state here
// needs no lock and the whole faulty stream stays bit-deterministic under
// any sweep worker count.

// RewindPolicy decides how much of a killed attempt survives into the next
// one. It abstracts the checkpoint/restart model so sched does not depend on
// internal/resilience (which sits above it); resilience.FacilityCheckpoint
// is the production implementation.
type RewindPolicy interface {
	// AttemptRuntime returns the virtual runtime of an attempt that still
	// has work left to execute, including checkpoint overhead and — when the
	// attempt resumes from a previous one's checkpoint — the restore cost.
	AttemptRuntime(work vclock.Time, resumed bool) vclock.Time
	// Rewind splits an attempt killed elapsed after its start into surviving
	// work (protected by a completed checkpoint) and lost time (everything
	// past the last completed checkpoint, restore and partial work included).
	Rewind(elapsed vclock.Time, resumed bool) (surviving, lost vclock.Time)
}

// FacilityFaults configures machine-level failure/repair for a facility run.
// The zero value (and a nil pointer) means a failure-free facility.
type FacilityFaults struct {
	// Cluster and Booster are the per-module reliability profiles. The
	// modules fail and repair independently.
	Cluster machine.FailureProfile
	Booster machine.FailureProfile
	// Seed fixes the failure/repair sequence (independent of the arrival
	// stream's seed, so the same workload can replay under many fault
	// histories).
	Seed int64
	// MaxFailures caps the total failures fired across both modules
	// (0 = unlimited; per-job retry bounds already guarantee termination).
	MaxFailures int
	// MaxRetries is the per-job requeue budget: a job killed more than this
	// many times is abandoned (default 8).
	MaxRetries int
	// RequeueDelay is the base requeue backoff: a job's k-th requeue re-enters
	// the queue k*RequeueDelay after the kill (default 50ms).
	RequeueDelay vclock.Time
	// Rewind is the checkpoint/restart model for killed jobs (nil = every
	// kill restarts the job's work from scratch).
	Rewind RewindPolicy

	// audit, when set by tests, runs after every capacity-changing event with
	// the baton held — the hook the fuzz oracle uses to re-derive the
	// free + allocated + failed == total invariant from scratch.
	audit func(q *queueRun, now vclock.Time, where string)
}

// Enabled reports whether any module injects failures.
func (f FacilityFaults) Enabled() bool {
	return f.Cluster.Enabled() || f.Booster.Enabled()
}

// Validate rejects unusable fault configurations.
func (f FacilityFaults) Validate() error {
	if err := f.Cluster.Validate(); err != nil {
		return err
	}
	if err := f.Booster.Validate(); err != nil {
		return err
	}
	if d := float64(f.RequeueDelay); math.IsNaN(d) || math.IsInf(d, 0) {
		return fmt.Errorf("sched: non-finite requeue delay %v", f.RequeueDelay)
	}
	if f.MaxFailures < 0 || f.MaxRetries < 0 || f.RequeueDelay < 0 {
		return fmt.Errorf("sched: negative fault bounds (max_failures %d, max_retries %d, requeue_delay %v)",
			f.MaxFailures, f.MaxRetries, f.RequeueDelay)
	}
	return nil
}

func (f FacilityFaults) maxRetries() int {
	if f.MaxRetries <= 0 {
		return 8
	}
	return f.MaxRetries
}

func (f FacilityFaults) requeueDelay() vclock.Time {
	if f.RequeueDelay <= 0 {
		return 50 * vclock.Millisecond
	}
	return f.RequeueDelay
}

// poolFaults is one module's live failure-process state.
type poolFaults struct {
	profile machine.FailureProfile
	rng     *rand.Rand
	total   int
	failed  int
	// failGen retires superseded failure draws: scheduleFailure bumps it and
	// captures the new value; a CallAt that fires with a stale generation is
	// a no-op (its rate was computed against an old operational count).
	failGen int
	// downNodeSec and busyNodeSec are running integrals of failed and
	// allocated node counts over virtual time (advanced by snap).
	downNodeSec float64
	busyNodeSec float64
}

// repairEvent is one scheduled node repair; the pending set feeds the
// backfill head-start estimate, making reservations repair-aware.
type repairEvent struct {
	at  vclock.Time
	mod machine.Module
}

// faultRun is the failure/repair state of one faulty queue simulation. All
// fields are kernel state (baton-protected), like queueRun itself.
type faultRun struct {
	cfg   FacilityFaults
	q     *queueRun
	pools [2]poolFaults // indexed by machine.Module
	// repairs holds the scheduled-but-not-yet-fired repair completions.
	repairs []repairEvent

	fired  int         // failures fired, across both modules
	lastAt vclock.Time // integrator clock for the node-second integrals
	// horizon is the latest event instant seen; availability and goodput are
	// defined over [0, horizon].
	horizon vclock.Time
	// Saturated-window snapshot: a copy of the integrals taken at the last
	// job arrival, before the stream drains. Utilization over this window is
	// what must track availability when the queue is saturated; the full-
	// horizon numbers dilute it with the drain tail.
	satAt   vclock.Time
	satDown [2]float64
	satBusy [2]float64

	failures    int
	repaired    int
	requeues    int
	abandoned   int
	lostNodeSec float64
}

// newFaultRun wires a faultRun into a queue run.
func newFaultRun(cfg FacilityFaults, q *queueRun, totalC, totalB int) *faultRun {
	f := &faultRun{cfg: cfg, q: q}
	f.pools[machine.Cluster] = poolFaults{
		profile: cfg.Cluster,
		rng:     rand.New(rand.NewSource(cfg.Seed + 1)),
		total:   totalC,
	}
	f.pools[machine.Booster] = poolFaults{
		profile: cfg.Booster,
		rng:     rand.New(rand.NewSource(cfg.Seed + 2)),
		total:   totalB,
	}
	return f
}

// start arms the initial failure draw of each module and the saturated-
// window snapshot at the stream's last arrival (the last job is still open
// then, so the driver task keeps the kernel running and the callback is
// guaranteed to fire).
func (f *faultRun) start(lastArrival vclock.Time) {
	f.scheduleFailure(machine.Cluster, 0)
	f.scheduleFailure(machine.Booster, 0)
	f.q.eng.CallAt(lastArrival, func() { f.markSaturated(lastArrival) })
}

// markSaturated snapshots the integrals at the last arrival instant.
func (f *faultRun) markSaturated(at vclock.Time) {
	f.snap(at)
	f.satAt = at
	for mod := range f.pools {
		f.satDown[mod] = f.pools[mod].downNodeSec
		f.satBusy[mod] = f.pools[mod].busyNodeSec
	}
}

// scheduleFailure redraws the module's next failure at the current
// operational-count rate. It always retires the previous draw, so it is the
// single point of truth for "the one live failure event per module".
func (f *faultRun) scheduleFailure(mod machine.Module, now vclock.Time) {
	p := &f.pools[mod]
	p.failGen++
	if !p.profile.Enabled() {
		return
	}
	if f.cfg.MaxFailures > 0 && f.fired >= f.cfg.MaxFailures {
		return
	}
	up := p.total - p.failed
	if up == 0 {
		return // fully down; the next repair redraws
	}
	gen := p.failGen
	at := now + vclock.Time(p.rng.ExpFloat64()*p.profile.MTBF.Seconds()/float64(up))
	f.q.eng.CallAt(at, func() { f.failNode(mod, gen, at) })
}

// failNode is the failure event: one uniformly-drawn operational node of the
// module dies. An idle node just leaves the free pool; an allocated node
// kills the job holding it (the job's whole allocation drains back to free,
// minus the dead node) and the job is rewound and requeued or abandoned.
// Either way an independent repair is scheduled and the failure process
// redraws at the new rate.
func (f *faultRun) failNode(mod machine.Module, gen int, at vclock.Time) {
	p := &f.pools[mod]
	if gen != p.failGen {
		return // superseded draw
	}
	f.snap(at)
	f.fired++
	f.failures++
	up := p.total - p.failed
	idx := p.rng.Intn(up)
	if free := f.q.free(mod); idx < free {
		f.q.addFree(mod, -1)
	} else {
		f.revoke(f.victim(mod, idx-free), at)
		f.q.addFree(mod, -1) // the struck node is down, not free
	}
	p.failed++

	rAt := at + vclock.Time(p.rng.ExpFloat64()*p.profile.MTTR.Seconds())
	f.repairs = append(f.repairs, repairEvent{at: rAt, mod: mod})
	f.q.eng.CallAt(rAt, func() { f.repairNode(mod, rAt) })

	f.audit(at, "failure")
	f.q.dispatch(at)
	f.scheduleFailure(mod, at)
}

// victim returns the running job holding the k-th allocated node of the
// module, walking the running set in grant order. The capacity invariant
// (free + allocated + failed == total) guarantees k lands on a job.
func (f *faultRun) victim(mod machine.Module, k int) *qjob {
	for _, r := range f.q.running {
		n := r.grantedC
		if mod == machine.Booster {
			n = r.grantedB
		}
		if k < n {
			return r
		}
		k -= n
	}
	panic(fmt.Sprintf("sched: fault victim index %d beyond allocated %v nodes", k, mod))
}

// revoke kills a running job at the failure instant: its allocation returns
// to the free pools, its scheduled completion is retired, its progress is
// rewound to the best surviving checkpoint, and it is requeued with linear
// backoff — or abandoned once its retry budget is spent.
func (f *faultRun) revoke(j *qjob, at vclock.Time) {
	q := f.q
	q.freeC += j.grantedC
	q.freeB += j.grantedB
	q.removeRunning(j)
	j.gen++ // retire the completion callback of this attempt
	j.granted = false
	held := float64(j.grantedC + j.grantedB)

	elapsed := at - j.start
	var surv, lost vclock.Time
	if f.cfg.Rewind != nil {
		surv, lost = f.cfg.Rewind.Rewind(elapsed, j.resumed)
	} else {
		surv, lost = 0, elapsed
	}
	// surv is on the attempt's (possibly stretched) timeline; progress is
	// tracked as nominal full-size work.
	survNominal := vclock.Time(surv.Seconds() / j.stretch)
	if survNominal > j.work {
		survNominal = j.work
	}
	j.work -= survNominal
	j.resumed = j.work < j.job.Duration
	f.lostNodeSec += lost.Seconds() * held
	j.salvaged += surv.Seconds() * held

	j.retries++
	if j.retries > f.cfg.maxRetries() {
		f.abandoned++
		j.abandoned = true
		// The surviving work of earlier attempts is discarded with the job:
		// retroactively it bought nothing, so it counts as lost too.
		f.lostNodeSec += j.salvaged
		q.retire(at)
		return
	}
	f.requeues++
	reAt := at + vclock.Time(float64(j.retries)*f.cfg.requeueDelay().Seconds())
	f.q.eng.CallAt(reAt, func() { f.requeue(j, reAt) })
}

// requeue re-enters a killed job at the back of the queue after its backoff.
func (f *faultRun) requeue(j *qjob, at vclock.Time) {
	f.snap(at)
	f.q.enqueue(j)
	f.audit(at, "requeue")
	f.q.dispatch(at)
}

// repairNode is the repair event: the node returns to the free pool, the
// pending-repair set shrinks, waiting jobs get a dispatch and the failure
// process redraws at the higher operational rate.
func (f *faultRun) repairNode(mod machine.Module, at vclock.Time) {
	f.snap(at)
	p := &f.pools[mod]
	p.failed--
	f.q.addFree(mod, 1)
	f.repaired++
	for i, r := range f.repairs {
		if r.at == at && r.mod == mod {
			f.repairs = append(f.repairs[:i], f.repairs[i+1:]...)
			break
		}
	}
	f.audit(at, "repair")
	f.q.dispatch(at)
	f.scheduleFailure(mod, at)
}

// attemptRuntime is the virtual runtime of a (re)started attempt with the
// given stretched work remaining.
func (f *faultRun) attemptRuntime(work vclock.Time, resumed bool) vclock.Time {
	if f.cfg.Rewind != nil {
		return f.cfg.Rewind.AttemptRuntime(work, resumed)
	}
	return work
}

// snap advances the down/busy node-second integrals to now. Call it at the
// top of every capacity-changing event, before mutating state.
func (f *faultRun) snap(now vclock.Time) {
	if dt := (now - f.lastAt).Seconds(); dt > 0 {
		for mod := range f.pools {
			p := &f.pools[mod]
			p.downNodeSec += float64(p.failed) * dt
			busy := p.total - f.q.free(machine.Module(mod)) - p.failed
			p.busyNodeSec += float64(busy) * dt
		}
		f.lastAt = now
	}
	if now > f.horizon {
		f.horizon = now
	}
}

// audit invokes the test oracle hook, if any.
func (f *faultRun) audit(now vclock.Time, where string) {
	if f.cfg.audit != nil {
		f.cfg.audit(f.q, now, where)
	}
}

// availability returns the module's simulated availability over the run:
// 1 - downtime/(nodes * horizon).
func (f *faultRun) availability(mod machine.Module) float64 {
	p := f.pools[mod]
	if p.total == 0 || f.horizon <= 0 {
		return 1
	}
	return 1 - p.downNodeSec/(float64(p.total)*f.horizon.Seconds())
}

// utilisation returns the module's allocated-node-time fraction over the
// run. Unlike Schedule.Utilisation it integrates actual occupancy — killed
// attempts held nodes too — which is what must track availability when the
// queue is saturated.
func (f *faultRun) utilisation(mod machine.Module) float64 {
	p := f.pools[mod]
	if p.total == 0 || f.horizon <= 0 {
		return 0
	}
	return p.busyNodeSec / (float64(p.total) * f.horizon.Seconds())
}

// satUtilisation and satAvailability are the same quantities cut at the last
// arrival: the saturated regime the steady-state cross-check binds to.
func (f *faultRun) satUtilisation(mod machine.Module) float64 {
	if f.pools[mod].total == 0 || f.satAt <= 0 {
		return 0
	}
	return f.satBusy[mod] / (float64(f.pools[mod].total) * f.satAt.Seconds())
}

func (f *faultRun) satAvailability(mod machine.Module) float64 {
	if f.pools[mod].total == 0 || f.satAt <= 0 {
		return 1
	}
	return 1 - f.satDown[mod]/(float64(f.pools[mod].total)*f.satAt.Seconds())
}

// free and addFree bridge module identity to the queue run's split counters.
func (q *queueRun) free(mod machine.Module) int {
	if mod == machine.Cluster {
		return q.freeC
	}
	return q.freeB
}

func (q *queueRun) addFree(mod machine.Module, n int) {
	if mod == machine.Cluster {
		q.freeC += n
	} else {
		q.freeB += n
	}
}
