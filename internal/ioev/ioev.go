// Package ioev is the seam between the I/O stack and the discrete-event
// kernel. The storage packages (beegfs, nvme, sion, nam, scr) express "this
// operation finishes at virtual time t" without threading raw
// `ready vclock.Time` values through their public APIs:
//
//   - Submit* methods take an opaque completion token (Op) as their
//     dependency and return a new Op for the completion, without parking.
//     Composed paths — a SION writer fanning a flush across stripe targets,
//     SCR issuing a local put and a buddy copy from the same instant —
//     chain Submit calls to price overlapping operations from one
//     dependency point and join them with After. The token wraps a virtual
//     instant but deliberately does not expose mutation: only ioev can mint
//     one from a raw time, so storage APIs cannot regrow hand-threaded
//     timestamp plumbing.
//
//   - A rank that must wait for the data parks on the token with Await,
//     once per call site: op, err := X.Submit…(ioev.Start(p), …, p.Node())
//     then ioev.Await(p, op). Under the kernel the park is a scheduled
//     wakeup event; the baton hand-off serialises every storage touch, and
//     the park lets other ranks reserve links and device queues first.
//
// beegfs.Cache is the one parking API: its asynchronous flush completion is
// a kernel callback (Proc.CallAt), so it needs the actor, not just a token.
//
// The package also owns the process-global I/O event counters surfaced by
// `cbctl run -stats` (container bytes, cache-domain
// flushes, buddy copies), mirroring engine.Global for kernel events.
package ioev

import (
	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// Proc is the actor on whose virtual clock an I/O operation is issued and
// awaited; *psmpi.Proc satisfies it inside a kernel job.
type Proc interface {
	// Node returns the machine node the actor runs on (the I/O initiator
	// for fabric transfers).
	Node() *machine.Node
	// Now returns the actor's current virtual time.
	Now() vclock.Time
	// Elapse advances the actor's clock by d, yielding to the kernel so
	// other tasks run during the span. Elapse(0) still yields the baton.
	Elapse(d vclock.Time)
	// CallAt schedules fn to run as a kernel event at virtual time at,
	// holding the baton.
	CallAt(at vclock.Time, fn func())
}

// Op is the completion token of a submitted I/O operation: an opaque handle
// for "done at virtual time t". Storage packages accept an Op as the
// dependency of a Submit* call and return a new Op for the completion;
// callers join tokens with After and park on the result with Await.
type Op struct {
	t vclock.Time
}

// At mints a completion token for a raw virtual instant: the SPI for
// storage-backend implementations, post-run pricing outside a kernel job,
// and timing tests. Code running on a rank starts from Start(p) and
// composes with After.
func At(t vclock.Time) Op { return Op{t: t} }

// Start returns a token for the actor's current instant — the dependency
// root of a Submit chain issued "now".
func Start(p Proc) Op { return Op{t: p.Now()} }

// Time returns the virtual instant the operation completes.
func (o Op) Time() vclock.Time { return o.t }

// After joins completion tokens: the returned Op completes when every input
// has (the latest instant). After() with no arguments is the zero instant.
func After(ops ...Op) Op {
	var t vclock.Time
	for _, o := range ops {
		if o.t > t {
			t = o.t
		}
	}
	return Op{t: t}
}

// Await parks the actor until op completes. If the operation is already in
// the actor's past the park degenerates to Elapse(0), which still yields —
// every storage call is a scheduling point, exactly like a kernel syscall.
func Await(p Proc, op Op) {
	d := op.t - p.Now()
	if d < 0 {
		d = 0
	}
	p.Elapse(d)
}
