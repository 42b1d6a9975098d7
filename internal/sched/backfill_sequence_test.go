package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"clusterbooster/internal/engine"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// The sequence test drives one queueRun through a whole seeded event
// stream — arrivals, head starts (malleable heads shrinking), completions,
// node failures with requeues, repairs — and checks every dispatch against
// the reference step of backfill_oracle_test.go run on a snapshot of the
// state it started from. One-pass checks cannot see a demand index that
// drifts out of step with the pending queue across passes; this one also
// recounts the index from the queue after every dispatch.

// seqGrant is one grant of a dispatch.
type seqGrant struct {
	id     int
	gc, gb int
	end    vclock.Time
}

// seqOutcome is what one dispatch decided.
type seqOutcome struct {
	grants       []seqGrant
	remaining    []int // pending job IDs left, in queue order
	freeC, freeB int
	counted      int // backfills counted by the pass
}

// seqRequeue is a killed job waiting out its backoff.
type seqRequeue struct {
	at vclock.Time
	j  *qjob
}

// seqCoverage counts the regimes a sequence reached.
type seqCoverage struct {
	dispatches, passes, scans, backfills, shrunk, completions, failures, requeues int
}

func (c *seqCoverage) add(o seqCoverage) {
	c.dispatches += o.dispatches
	c.passes += o.passes
	c.scans += o.scans
	c.backfills += o.backfills
	c.shrunk += o.shrunk
	c.completions += o.completions
	c.failures += o.failures
	c.requeues += o.requeues
}

// seqDriver is a small event loop over one queueRun. It performs each
// event's own state change, then calls the run's dispatch, so the
// reference step can see the exact state that dispatch starts from. The
// run's engine never runs: the completions and requeues it would schedule
// are the driver's events instead.
type seqDriver struct {
	rng      *rand.Rand
	q        *queueRun
	now      vclock.Time
	totalC   int
	totalB   int
	shapes   [][2]int
	nextID   int
	arrivals int // jobs still to arrive
	arriveAt vclock.Time
	failures int // failures still to strike
	failAt   vclock.Time
	requeued []seqRequeue
	cov      seqCoverage
}

// newSeqDriver draws a machine, a small shape palette (so demand classes
// repeat, as in the facility mix) and, for half the seeds, a failing
// machine with checkpointed or cold requeues.
func newSeqDriver(seed int64) *seqDriver {
	rng := rand.New(rand.NewSource(seed))
	totalC, totalB := 1+rng.Intn(12), 1+rng.Intn(12)
	d := &seqDriver{rng: rng, totalC: totalC, totalB: totalB, arrivals: 20 + rng.Intn(120), nextID: 1}
	for n := 2 + rng.Intn(5); len(d.shapes) < n; {
		c, b := rng.Intn(totalC+1), rng.Intn(totalB+1)
		if c+b > 0 {
			d.shapes = append(d.shapes, [2]int{c, b})
		}
	}
	d.q = &queueRun{policy: Backfill, freeC: totalC, freeB: totalB, eng: engine.New(), open: 1 << 30}
	if rng.Intn(2) == 0 {
		var cfg FacilityFaults
		if rng.Intn(2) == 0 {
			cfg.Rewind = testCkpt{every: vclock.Time(1+rng.Intn(4)) * 0.25}
		}
		d.q.faults = newFaultRun(cfg, d.q, totalC, totalB)
		d.failures = 1 + rng.Intn(30)
		d.failAt = d.grid(6)
	}
	d.arriveAt = d.grid(2)
	return d
}

// grid is now plus a random multiple of a quarter second up to max
// seconds, so instants tie with each other and with reservations.
func (d *seqDriver) grid(max int) vclock.Time {
	return d.now + vclock.Time(d.rng.Intn(4*max+1))*0.25
}

// job draws the next arrival: mostly palette shapes, sometimes any shape,
// a quarter of them malleable.
func (d *seqDriver) job() *qjob {
	s := d.shapes[d.rng.Intn(len(d.shapes))]
	if d.rng.Intn(8) == 0 {
		s = [2]int{d.rng.Intn(d.totalC + 1), 1 + d.rng.Intn(d.totalB)}
	}
	j := Job{ID: d.nextID, Cluster: s[0], Booster: s[1], Arrival: d.now,
		Duration: vclock.Time(d.rng.Intn(13)) * 0.25}
	d.nextID++
	if d.rng.Intn(4) == 0 {
		j.Malleable = true
		if j.Cluster > 0 {
			j.MinCluster = 1 + d.rng.Intn(j.Cluster)
		}
		if j.Booster > 0 {
			j.MinBooster = 1 + d.rng.Intn(j.Booster)
		}
	}
	return &qjob{job: j, work: j.Duration, stretch: 1}
}

// run plays the sequence to its end and fails on the first dispatch that
// departs from the reference or leaves the index out of step.
func (d *seqDriver) run() error {
	for {
		const none = vclock.Time(1 << 62)
		q := d.q
		arrive, complete, repair, requeue, fail := none, none, none, none, none
		if d.arrivals > 0 {
			arrive = d.arriveAt
		}
		var done *qjob
		for _, r := range q.running {
			if r.end < complete {
				complete, done = r.end, r
			}
		}
		ri := -1
		if f := q.faults; f != nil {
			for i, r := range f.repairs {
				if r.at < repair {
					repair, ri = r.at, i
				}
			}
			if d.failures > 0 {
				fail = d.failAt
			}
		}
		qi := -1
		for i, r := range d.requeued {
			if r.at < requeue {
				requeue, qi = r.at, i
			}
		}
		next := min(arrive, complete, repair, requeue, fail)
		if next == none {
			if len(q.pending) > 0 {
				return fmt.Errorf("sequence ended with %d jobs pending", len(q.pending))
			}
			return nil
		}
		d.now = next
		switch next {
		case complete:
			done.done = true
			done.work = 0
			q.freeC += done.grantedC
			q.freeB += done.grantedB
			q.removeRunning(done)
			d.cov.completions++
		case arrive:
			q.enqueue(d.job())
			q.cnt.submitted++
			d.arrivals--
			d.arriveAt = d.grid(1)
		case requeue:
			q.enqueue(d.requeued[qi].j)
			d.requeued = slices.Delete(d.requeued, qi, qi+1)
			d.cov.requeues++
		case repair:
			f := q.faults
			mod := f.repairs[ri].mod
			f.repairs = slices.Delete(f.repairs, ri, ri+1)
			f.pools[mod].failed--
			q.addFree(mod, 1)
		case fail:
			d.fail()
		}
		if err := d.dispatch(); err != nil {
			return err
		}
	}
}

// fail strikes one operational node, as faultRun.failNode does: an idle
// node leaves the free pool, an allocated one kills its job, which is
// requeued after its backoff or abandoned. A repair is scheduled either way.
func (d *seqDriver) fail() {
	q, f := d.q, d.q.faults
	d.failures--
	d.failAt = d.grid(3)
	mod := machine.Module(d.rng.Intn(2))
	p := &f.pools[mod]
	up := p.total - p.failed
	if up == 0 {
		return
	}
	if idx, free := d.rng.Intn(up), q.free(mod); idx >= free {
		j := f.victim(mod, idx-free)
		f.revoke(j, d.now)
		if j.retries <= f.cfg.maxRetries() {
			d.requeued = append(d.requeued, seqRequeue{at: d.now + vclock.Time(float64(j.retries)*f.cfg.requeueDelay().Seconds()), j: j})
		}
	}
	q.addFree(mod, -1)
	p.failed++
	f.repairs = append(f.repairs, repairEvent{at: d.grid(4), mod: mod})
	d.cov.failures++
}

// dispatch runs the reference step on a snapshot, then the run's own
// dispatch, and compares them; then it recounts the demand index.
func (d *seqDriver) dispatch() error {
	q := d.q
	want := d.reference()
	ran, passes, scans, backfilled, shrunk := len(q.running), q.cnt.bfPasses, q.cnt.bfScans, q.cnt.backfilled, q.cnt.shrunk
	q.dispatch(d.now)
	got := seqOutcome{freeC: q.freeC, freeB: q.freeB, counted: q.cnt.backfilled - backfilled}
	for _, j := range q.running[ran:] {
		got.grants = append(got.grants, seqGrant{j.job.ID, j.grantedC, j.grantedB, j.end})
	}
	for _, e := range q.pending {
		got.remaining = append(got.remaining, e.j.job.ID)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("dispatch %d at %v:\nqueueRun %+v\noracle   %+v", d.cov.dispatches, d.now, got, want)
	}
	if err := checkIndex(q); err != nil {
		return fmt.Errorf("dispatch %d at %v: %v", d.cov.dispatches, d.now, err)
	}
	if scanned := q.cnt.bfScans > scans; scanned != (got.counted > 0) {
		return fmt.Errorf("dispatch %d at %v: scanned %v but granted %d", d.cov.dispatches, d.now, scanned, got.counted)
	}
	d.cov.dispatches++
	d.cov.passes += q.cnt.bfPasses - passes
	d.cov.scans += q.cnt.bfScans - scans
	d.cov.backfills += got.counted
	d.cov.shrunk += q.cnt.shrunk - shrunk
	return nil
}

// reference is the dispatch the run is about to make, computed by the
// reference step on copies of the queue, running set and pending repairs:
// heads start in order (a malleable head shrinks to the free pools, down to
// its minima), then the oracle's backfill step runs behind a blocked head.
func (d *seqDriver) reference() seqOutcome {
	q := d.q
	o := &oracleQueue{freeC: q.freeC, freeB: q.freeB}
	for _, e := range q.pending {
		j := *e.j
		o.pending = append(o.pending, &j)
	}
	for _, r := range q.running {
		j := *r
		o.running = append(o.running, &j)
	}
	if q.faults != nil {
		o.faults = &faultRun{repairs: slices.Clone(q.faults.repairs)}
	}
	var out seqOutcome
	start := func(j *qjob, gc, gb int, stretch float64) {
		o.freeC -= gc
		o.freeB -= gb
		dur := vclock.Time(j.work.Seconds() * stretch)
		if f := q.faults; f != nil {
			dur = f.attemptRuntime(dur, j.resumed)
		}
		j.grantedC, j.grantedB = gc, gb
		j.start, j.end = d.now, d.now+dur
		o.running = append(o.running, j)
		out.grants = append(out.grants, seqGrant{j.job.ID, gc, gb, j.end})
	}
	o.grant = func(j *qjob) { start(j, j.job.Cluster, j.job.Booster, 1) }
	for len(o.pending) > 0 && referenceHeadStart(o, o.pending[0], start) {
		o.pending = o.pending[1:]
	}
	if len(o.pending) > 0 {
		o.backfill(d.now)
	}
	for _, j := range o.pending {
		out.remaining = append(out.remaining, j.job.ID)
	}
	out.freeC, out.freeB, out.counted = o.freeC, o.freeB, o.cnt.backfilled
	return out
}

// referenceHeadStart starts the head at full size if it fits, else a
// malleable head at the free pools' size if that meets its minima, with
// runtime stretched by the larger per-module shrink factor.
func referenceHeadStart(o *oracleQueue, j *qjob, start func(j *qjob, gc, gb int, stretch float64)) bool {
	c, b := j.job.Cluster, j.job.Booster
	if c <= o.freeC && b <= o.freeB {
		start(j, c, b, 1)
		return true
	}
	if !j.job.Malleable {
		return false
	}
	gc, gb := min(c, o.freeC), min(b, o.freeB)
	if gc < j.job.MinCluster || gb < j.job.MinBooster {
		return false
	}
	stretch := 1.0
	if c > 0 && gc > 0 {
		stretch = max(stretch, float64(c)/float64(gc))
	}
	if b > 0 && gb > 0 {
		stretch = max(stretch, float64(b)/float64(gb))
	}
	start(j, gc, gb, stretch)
	return true
}

// checkIndex recounts the demand index from the pending queue: one class
// per distinct full-size demand, holding exactly the pending durations of
// that demand in ascending order.
func checkIndex(q *queueRun) error {
	want := map[[2]int][]vclock.Time{}
	for _, e := range q.pending {
		k := [2]int{e.cluster, e.booster}
		want[k] = append(want[k], e.dur)
	}
	for _, durs := range want {
		slices.Sort(durs)
	}
	got := map[[2]int][]vclock.Time{}
	for _, c := range q.classes {
		k := [2]int{c.cluster, c.booster}
		if _, dup := got[k]; dup {
			return fmt.Errorf("demand %v indexed twice", k)
		}
		got[k] = c.durs
		if len(c.durs) == 0 {
			delete(got, k)
		}
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("demand index %v, pending queue holds %v", got, want)
	}
	return nil
}

// TestBackfillSequenceMatchesOracle plays seeded event sequences through
// one queueRun each and requires every dispatch to match the reference and
// the demand index to match a recount of the queue after every dispatch.
func TestBackfillSequenceMatchesOracle(t *testing.T) {
	seqs := 400
	if testing.Short() {
		seqs = 100
	}
	var cov seqCoverage
	for seed := int64(1); seed <= int64(seqs); seed++ {
		d := newSeqDriver(seed)
		if err := d.run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cov.add(d.cov)
	}
	// The sequences must reach every regime, or the agreement says little:
	// passes the index proves grantless as well as scanning passes,
	// backfill grants, shrunk malleable heads, completions and requeues.
	if cov.scans == 0 || cov.passes <= cov.scans || cov.backfills == 0 || cov.shrunk == 0 ||
		cov.completions == 0 || cov.failures == 0 || cov.requeues == 0 {
		t.Fatalf("weak coverage over %d sequences: %+v", seqs, cov)
	}
	t.Logf("%d sequences: %+v", seqs, cov)
}

// TestBackfillScansOnlyWhenGranting pins the index's exactness on the
// one-pass states of TestBackfillMatchesOracle, fitting heads included: a
// pass scans the queue if and only if it grants something, and visits at
// least its grants and at most the jobs behind the head.
func TestBackfillScansOnlyWhenGranting(t *testing.T) {
	rng := rand.New(rand.NewSource(20180521))
	for n := 0; n < 4000; n++ {
		s := drawBackfillState(rng)
		pending, running := s.instantiate()
		q := &queueRun{policy: Backfill, freeC: s.freeC, freeB: s.freeB, running: running, faults: s.faultRun()}
		for _, j := range pending {
			q.enqueue(j)
		}
		var grants []int
		q.backfill(s.now, grantRecorder(&q.freeC, &q.freeB, &q.running, s.now, s.overhead, &grants))
		if q.cnt.bfPasses != 1 || q.cnt.bfScans != min(len(grants), 1) || q.cnt.bfScanned > len(pending)-1 || q.cnt.bfScanned < len(grants) {
			t.Fatalf("state %d (%+v): %d grants, counters %+v", n, s, len(grants), q.cnt)
		}
	}
}

// FuzzBackfillSequence is TestBackfillSequenceMatchesOracle on one
// sequence per input seed. The checked-in corpus covers a failure-free
// machine with malleable heads shrinking, cold and checkpointed requeues on
// a failing machine, and a 2+1-node machine under failures.
func FuzzBackfillSequence(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := newSeqDriver(seed).run(); err != nil {
			t.Fatal(err)
		}
	})
}
