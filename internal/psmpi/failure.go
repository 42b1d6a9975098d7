package psmpi

import (
	"errors"
	"fmt"
	"math/rand"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// NodeFailure is the error every rank of a job carries after an injected
// node failure aborted it: the whole job dies (MPI semantics — §III-D
// restarts the job from the best surviving checkpoint, it does not continue
// degraded). Recover it from a Launch result with FailureOf.
type NodeFailure struct {
	// Node is the name of the failed node.
	Node string
	// At is the virtual time the failure struck.
	At vclock.Time
}

// Error renders the failure.
func (f *NodeFailure) Error() string {
	return fmt.Sprintf("node %s failed at %v", f.Node, f.At)
}

// FailureOf extracts the injected node failure that aborted a job, walking
// the joined and wrapped rank errors of a Launch result. ok is false when err
// carries no injected failure — a genuine application or runtime error.
func FailureOf(err error) (*NodeFailure, bool) {
	var nf *NodeFailure
	if errors.As(err, &nf) {
		return nf, true
	}
	return nil, false
}

// FailureInjector schedules deterministic node failures into launches: one
// seeded RNG draws exponential inter-arrival times against the system MTBF
// (per-node MTBF over the distinct nodes of the victim pool) and uniform
// victims, so a fixed seed yields a fixed failure sequence in virtual time —
// independent of host scheduling or sweep worker counts.
//
// The injector is stateful across launches on purpose: a restart loop
// re-launches the job after each failure, and the injector continues the
// failure sequence into the new attempt (the exponential law is memoryless,
// so drawing the next inter-arrival from the attempt's start time is
// faithful; failures during the restart window itself are not modelled).
// Each armed launch carries at most one failure — the first one kills it.
type FailureInjector struct {
	mtbf  vclock.Time // per-node MTBF
	rng   *rand.Rand
	pool  []*machine.Node // victim pool (distinct nodes)
	max   int             // stop injecting after this many failures (0 = none)
	count int             // failures fired so far, across launches

	// OnFailure, if set, runs at the failure instant before the job is torn
	// down — the hook the SCR glue uses to invalidate the node's checkpoints.
	OnFailure func(node *machine.Node, at vclock.Time)
}

// NewFailureInjector builds an injector over the distinct nodes of pool.
// mtbf is the per-node mean time between failures; maxFailures bounds how
// many failures the injector will ever fire, so a bounded restart loop
// eventually runs failure-free to completion. A zero mtbf, zero maxFailures
// or empty pool yields an injector that never fires.
func NewFailureInjector(mtbf vclock.Time, seed int64, maxFailures int, pool []*machine.Node) *FailureInjector {
	distinct := make([]*machine.Node, 0, len(pool))
	seen := map[int]bool{}
	for _, n := range pool {
		if !seen[n.ID] {
			seen[n.ID] = true
			distinct = append(distinct, n)
		}
	}
	return &FailureInjector{
		mtbf: mtbf,
		rng:  rand.New(rand.NewSource(seed)),
		pool: distinct,
		max:  maxFailures,
	}
}

// arm schedules this launch's failure event (if the injector still has
// failures to give): the system-MTBF exponential draw past start picks the
// instant, a uniform draw the victim node. Called by Launch before Run.
func (fi *FailureInjector) arm(l *launch, start vclock.Time) {
	if fi == nil || fi.mtbf <= 0 || len(fi.pool) == 0 || fi.count >= fi.max {
		return
	}
	system := fi.mtbf.Seconds() / float64(len(fi.pool))
	at := start + vclock.Time(fi.rng.ExpFloat64()*system)
	victim := fi.pool[fi.rng.Intn(len(fi.pool))]
	l.eng.CallAt(at, func() {
		fi.count++
		if fi.OnFailure != nil {
			fi.OnFailure(victim, at)
		}
		l.abort(&NodeFailure{Node: victim.Name(), At: at})
	})
}

// abort tears the whole job tree down at the failure instant: every live
// task — ranks on the failed node and survivors alike — is failed with the
// NodeFailure, so the job drains through ordinary teardown instead of
// tripping the kernel's deadlock detector. Runs as a kernel callback
// (holding the baton), so touching launch state is safe. Task.Fail is a
// no-op on finished tasks, so ranks that already exited are left alone.
func (l *launch) abort(nf *NodeFailure) {
	for _, p := range l.all {
		p.task.Fail(nf.At, nf)
	}
}
