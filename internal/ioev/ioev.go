// Package ioev is the seam between the I/O stack and the discrete-event
// kernel. It gives the storage packages (beegfs, nvme, sion, nam) two ways
// to express "this operation finishes at virtual time t" without threading
// raw `ready vclock.Time` values through their public APIs:
//
//   - The parking layer: methods take an ioev.Proc — any actor with a clock
//     and the ability to sleep on it, in practice a *psmpi.Proc — issue their
//     device/fabric reservations at p.Now(), and park the caller with Await
//     until the data is durable. Under the kernel the park is a scheduled
//     wakeup event; the baton hand-off serialises every storage touch.
//
//   - The submission layer: Submit* methods thread an opaque completion
//     token (Op) instead of parking. Composed paths — a SION writer fanning
//     a flush across stripe targets, SCR issuing a local put and a buddy
//     copy from the same instant — chain Submit calls to price overlapping
//     operations from one dependency point and park exactly once at the
//     join. The token wraps a virtual instant but deliberately does not
//     expose mutation: only ioev can mint one from a raw time, so storage
//     APIs cannot regrow hand-threaded timestamp plumbing.
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
// awaited. *psmpi.Proc satisfies it inside a kernel job; Detach builds a
// free-standing implementation for pricing I/O outside any kernel (tests,
// benchmarks, post-run sweep accounting).
type Proc interface {
	// Node returns the machine node the actor runs on (the I/O initiator
	// for fabric transfers). Detached actors may return nil; operations
	// that cross the fabric require a non-nil node.
	Node() *machine.Node
	// Now returns the actor's current virtual time.
	Now() vclock.Time
	// Elapse advances the actor's clock by d, yielding to the kernel so
	// other tasks run during the span. Elapse(0) still yields the baton.
	Elapse(d vclock.Time)
	// CallAt schedules fn to run as a kernel event at virtual time at,
	// holding the baton. Detached actors run fn inline at issue time.
	CallAt(at vclock.Time, fn func())
}

// Op is the completion token of a submitted I/O operation: an opaque handle
// for "done at virtual time t". Storage packages accept an Op as the
// dependency of a Submit* call and return a new Op for the completion;
// callers join tokens with After and park on the result with Await.
type Op struct {
	t vclock.Time
}

// At mints a completion token for a raw virtual instant. This is the SPI
// for storage-backend implementations and timing tests; application code
// starts from Start(p) and composes with After.
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

// Detached is a free-standing Proc for pricing I/O outside a kernel job:
// unit tests, benchmarks, and sweep post-run accounting construct one per
// logical rank and read the accumulated virtual time back with Now. Elapse
// advances a private clock without yielding (there is nothing to yield to),
// and CallAt runs the callback inline at issue time, so completion-event
// bookkeeping (e.g. cache-flush accounting) is visible immediately.
type Detached struct {
	node *machine.Node
	now  vclock.Time
}

// Detach builds a detached actor on node (nil is allowed when no fabric
// transfer will be issued) whose clock starts at start.
func Detach(node *machine.Node, start vclock.Time) *Detached {
	return &Detached{node: node, now: start}
}

// Node returns the actor's node; may be nil.
func (d *Detached) Node() *machine.Node { return d.node }

// Now returns the actor's private clock.
func (d *Detached) Now() vclock.Time { return d.now }

// Elapse advances the private clock.
func (d *Detached) Elapse(dur vclock.Time) {
	if dur < 0 {
		panic("ioev: Elapse with negative duration")
	}
	d.now += dur
}

// CallAt runs fn inline: a detached actor has no event queue, so deferred
// bookkeeping happens at issue time (the instant at is discarded).
func (d *Detached) CallAt(_ vclock.Time, fn func()) { fn() }
