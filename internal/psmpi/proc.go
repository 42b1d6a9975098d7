package psmpi

import (
	"clusterbooster/internal/engine"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// Proc is one MPI process (rank). All methods must be called from the rank's
// own goroutine — exactly like an MPI rank, a Proc is single-threaded. The
// goroutine runs under the job's execution kernel (internal/engine), which
// schedules exactly one rank at a time in virtual-time order.
type Proc struct {
	rt     *Runtime
	l      *launch
	node   *machine.Node
	clock  *vclock.Clock
	task   *engine.Task
	mbox   *mailbox
	rank   int // rank in its world communicator
	world  *Comm
	parent *Comm // intercommunicator to the spawning job, nil at top level

	commRank map[uint64]int // this proc's rank per communicator id
	// prFree recycles Irecv posting records (returned by Wait).
	prFree []*postedRecv
	// reqFree recycles the requests of Irecv and rendezvous sends (returned
	// by Wait).
	reqFree []*Request
	// eagerDone is the shared born-done request every eager send returns (a
	// completed send request carries no state).
	eagerDone Request
	// scalarBuf is AllreduceScalar's reusable one-element working buffer.
	scalarBuf []float64
}

// newProc builds a rank's state. Its kernel task is created later, by
// startJob.
func newProc(rt *Runtime, l *launch, node *machine.Node, rank int) *Proc {
	p := &Proc{
		rt:       rt,
		l:        l,
		node:     node,
		clock:    vclock.NewClock(0),
		mbox:     newMailbox(),
		rank:     rank,
		commRank: map[uint64]int{},
	}
	p.eagerDone = Request{p: p}
	return p
}

// Rank returns this process's rank in its world communicator.
func (p *Proc) Rank() int { return p.rank }

// World returns the world communicator of this process's job.
func (p *Proc) World() *Comm { return p.world }

// Parent returns the intercommunicator to the spawning job, or nil if this
// process was not spawned (MPI_Comm_get_parent).
func (p *Proc) Parent() *Comm { return p.parent }

// Node returns the node this rank runs on.
func (p *Proc) Node() *machine.Node { return p.node }

// Now returns this rank's current virtual time (MPI_Wtime).
func (p *Proc) Now() vclock.Time { return p.clock.Now() }

// Compute advances this rank's clock by the cost of the given work on its
// node.
func (p *Proc) Compute(w machine.Work) {
	p.clock.Advance(p.node.Spec.ComputeTime(w))
}

// Elapse advances the clock by an externally computed duration (device I/O,
// file-system time). The wait is a scheduled kernel event: the rank parks
// until the completion instant fires, so device latencies take their place
// in the global event order. (When the completion is the earliest pending
// event the kernel returns immediately — a device wait with nothing
// concurrent costs two queue operations.)
func (p *Proc) Elapse(d vclock.Time) {
	p.clock.Advance(d)
	p.task.SleepUntil(p.clock.Now())
}

// CallAt schedules fn to run as a kernel event at virtual time at, holding
// the baton: no rank executes while the callback runs, so fn may touch any
// model state. Storage models use this to fire completion-side bookkeeping
// (e.g. a cache domain marking a flush durable) at the instant it happens
// in virtual time rather than the instant it was issued. A callback still
// pending when the job's last rank exits never runs.
func (p *Proc) CallAt(at vclock.Time, fn func()) {
	p.l.eng.CallAt(at, fn)
}

// rankIn returns this proc's rank in the given communicator, panicking if the
// proc is not a member — the same error class as using a communicator one is
// not part of in MPI.
func (p *Proc) rankIn(c *Comm) int {
	if c == p.world {
		return p.rank // hot path: most traffic runs on the world communicator
	}
	r, ok := p.commRank[c.id]
	if !ok {
		panic("psmpi: proc is not a member of this communicator")
	}
	return r
}
