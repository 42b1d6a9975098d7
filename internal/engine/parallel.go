package engine

import (
	"fmt"

	"clusterbooster/internal/vclock"
)

// This file is the conservative parallel mode of the kernel: multi-core
// execution of ONE simulated job with bit-identical results.
//
// The serial kernel runs every task of a launch cooperatively on one event
// queue. The parallel mode partitions the tasks into groups (the caller
// groups them by node, so every fabric link reservation stays group-local)
// and advances the groups concurrently in synchronous safe-window rounds,
// the classic conservative-DES scheme (Chandy/Misra/Bryant, synchronous
// variant):
//
//   - Each round, the coordinator computes the earliest pending task event
//     minAt across all groups and opens the window [minAt, minAt+L), where
//     L is the cross-group lookahead: the minimum virtual latency any
//     action of one group needs to affect another. For the Cluster-Booster
//     fabric that is wire latency plus the smallest send overhead
//     (fabric.CrossLookahead) — no message, match, or wakeup can cross
//     nodes faster.
//
//   - Every group with an event inside the window runs its own event chain
//     concurrently: per-group event queue, per-group blocked set, the
//     same baton-passing discipline as the serial kernel. A group's chain
//     stops when its next event lies at or beyond the window, and signals
//     the coordinator.
//
//   - Effects that cross groups (message delivery, a rendezvous completion
//     waking a sender on another node) are not applied mid-round: the model
//     layer wraps them in Task.Defer, which appends them to the acting
//     group's outbox. At the barrier the coordinator applies all outboxes
//     in group order. The lookahead guarantees every such effect lands at
//     virtual time >= the window end, so deferring it past the round moves
//     it over no event it could have influenced.
//
// Why the result is bit-identical to serial, for any group count: events at
// different virtual times never race (the window ends strictly before the
// earliest cross-group effect), and events at equal virtual times only
// commute when they touch disjoint state — which the node partition
// guarantees for group-local events, and the fixed group-order barrier
// replay guarantees for cross-group ones. Scheduling-diagnostic counters
// (parks, switches, kept) do differ between modes; model state never does.
// DESIGN.md ("Conservative parallel kernel") carries the full argument.
//
// Callbacks (CallAt) remain a coordinator-only facility: they run between
// rounds, holding the whole kernel still exactly like the serial baton, and
// the window never opens past a pending callback. Failure injection, which
// is built on callbacks, therefore tears tasks down at the exact same
// virtual instants as the serial kernel.

// Fallback reasons recorded in Stats.Fallback when parallel execution was
// requested but the kernel ran serial. Model layers add their own (tracing,
// failure injection, storage models).
const (
	FallbackSingleGroup   = "single group"
	FallbackZeroLookahead = "zero lookahead"
)

// pgroup is one group's private share of the kernel: its own event
// queue, same-instant batch, blocked set and outbox. Exactly one goroutine
// of the group runs at a time (the group-local baton), so none of this
// needs locking; the coordinator touches it only between rounds.
type pgroup struct {
	queue   vclock.Queue[kev]
	batch   []vclock.Entry[kev] // drained same-instant events, consumed first
	bi      int                 // next unconsumed batch index
	blocked []*Task             // tasks parked without a pending event
	outbox  []func()            // cross-group effects, applied at the barrier
	exited  int                 // tasks of this group that have exited
	stats   Stats               // group-local counters, folded in at the end
}

// next takes the group's next event strictly before the window end w —
// batch first, then the queue — exactly mirroring Engine.next.
func (g *pgroup) next(w vclock.Time) (vclock.Entry[kev], bool) {
	if g.bi >= len(g.batch) {
		if head, ok := g.queue.Peek(); !ok || head.At >= w {
			return vclock.Entry[kev]{}, false
		}
		g.batch = g.queue.PopRun(g.batch[:0])
		g.bi = 0
	}
	ev := g.batch[g.bi]
	g.batch[g.bi] = vclock.Entry[kev]{} // release the task reference
	g.bi++
	return ev, true
}

// pendingAt mirrors Engine.pendingAt on the group's queue.
func (g *pgroup) pendingAt(at vclock.Time) bool {
	if g.bi < len(g.batch) {
		return true
	}
	head, ok := g.queue.Peek()
	return ok && head.At <= at
}

// unblock removes a task from the group's blocked set (swap removal).
func (g *pgroup) unblock(t *Task) {
	last := len(g.blocked) - 1
	g.blocked[t.bIdx] = g.blocked[last]
	g.blocked[t.bIdx].bIdx = t.bIdx
	g.blocked[last] = nil
	g.blocked = g.blocked[:last]
}

// parKernel is the coordinator state of a parallel run.
type parKernel struct {
	groups    []*pgroup
	lookahead vclock.Time
	// windowEnd is the exclusive end of the current round's safe window.
	// Written by the coordinator between rounds, read by group goroutines
	// during the round; the kickstart/round-done channel handoffs order
	// every write before every read.
	windowEnd vclock.Time
	// inRound is true while group chains may be running. Same publication
	// discipline as windowEnd. Task.Defer and the CallAt guard read it.
	inRound   bool
	roundDone chan struct{}
}

// SetParallel requests conservative parallel execution on groups task
// groups with the given cross-group lookahead. Must be called before any
// task is registered. Degenerate requests fall back to serial execution —
// the return value says which mode the kernel will run — with the reason
// recorded in Stats.Fallback.
func (e *Engine) SetParallel(groups int, lookahead vclock.Time) bool {
	if len(e.tasks) > 0 {
		panic("engine: SetParallel after task registration")
	}
	if groups < 2 {
		e.stats.Fallback = FallbackSingleGroup
		return false
	}
	if !(lookahead > 0) { // negation catches NaN too
		e.stats.Fallback = FallbackZeroLookahead
		return false
	}
	p := &parKernel{
		groups:    make([]*pgroup, groups),
		lookahead: lookahead,
		roundDone: make(chan struct{}, groups),
	}
	for i := range p.groups {
		p.groups[i] = &pgroup{}
	}
	e.par = p
	e.stats.Groups = groups
	return true
}

// NoteSerialFallback records that the caller wanted parallel execution but
// chose serial for a model-layer reason (tracing, failure injection, ...).
// The reason lands in Stats.Fallback and the process-wide aggregate.
func (e *Engine) NoteSerialFallback(reason string) {
	if e.par != nil {
		panic("engine: NoteSerialFallback on a parallel kernel")
	}
	e.stats.Fallback = reason
}

// Parallel reports whether the kernel runs the conservative parallel mode.
func (e *Engine) Parallel() bool { return e.par != nil }

// SetGroup assigns the task to a parallel group. Call it between task
// registration and StartAt; tasks default to group 0. No-op on a serial
// kernel, so model code can assign unconditionally.
func (t *Task) SetGroup(gid int) {
	e := t.eng
	if e.par == nil {
		return
	}
	if t.state != stateCreated {
		panic(fmt.Sprintf("engine: SetGroup on task %q in state %d", t.name(), t.state))
	}
	if gid < 0 || gid >= len(e.par.groups) {
		panic(fmt.Sprintf("engine: SetGroup(%d) with %d groups", gid, len(e.par.groups)))
	}
	t.gid = int32(gid)
}

// Defer runs fn at the next deterministic global point. On a serial kernel
// (or outside a round: before Run, in a callback, at a barrier) that is
// right now — the caller holds the baton and may touch anything. During a
// parallel round, fn is appended to the calling task's group outbox and
// runs at the round barrier, in group order, when every group is quiescent.
// Model layers route every cross-group effect through Defer; the lookahead
// guarantees such effects land at or beyond the window end, so the deferral
// reorders them over nothing they could influence.
func (t *Task) Defer(fn func()) {
	e := t.eng
	if e.par == nil || !e.par.inRound {
		fn()
		return
	}
	g := e.par.groups[t.gid]
	g.outbox = append(g.outbox, fn)
}

// dispatchPar hands the group baton to the group's earliest event inside
// the window, or signals the coordinator that the group's chain is done.
func (e *Engine) dispatchPar(g *pgroup) {
	ev, ok := g.next(e.par.windowEnd)
	if !ok {
		e.par.roundDone <- struct{}{}
		return
	}
	nt := ev.Payload.task
	if nt == nil {
		panic("engine: callback event on a group queue")
	}
	g.stats.Events++
	g.stats.Switches++
	nt.state = stateRunning
	nt.resume <- struct{}{}
}

// parkPar is Park on a parallel kernel: same discipline against the
// group-local queue and blocked set.
func (t *Task) parkPar() {
	e := t.eng
	g := e.par.groups[t.gid]
	t.state = stateBlocked
	t.bIdx = len(g.blocked)
	g.blocked = append(g.blocked, t)
	g.stats.Parks++
	e.dispatchPar(g)
	<-t.resume
	t.checkPoison()
}

// sleepUntilPar is SleepUntil on a parallel kernel. The keep-the-baton fast
// path additionally requires the wakeup to fall strictly inside the safe
// window: a wakeup at or past the window end must yield to the barrier,
// because another group (or a deferred cross-group effect) may own an
// earlier event.
func (t *Task) sleepUntilPar(at vclock.Time) {
	e := t.eng
	g := e.par.groups[t.gid]
	if at < e.par.windowEnd && !g.pendingAt(at) {
		g.stats.Events++
		g.stats.Kept++
		t.checkPoison()
		return
	}
	g.queue.Push(at, kev{task: t})
	ev, ok := g.next(e.par.windowEnd)
	if !ok {
		// Own wakeup at or beyond the window: park until the next round.
		t.state = stateReady
		g.stats.Parks++
		e.par.roundDone <- struct{}{}
		<-t.resume
		t.checkPoison()
		return
	}
	g.stats.Events++
	nt := ev.Payload.task
	if nt == t {
		g.stats.Kept++
		t.checkPoison()
		return // still the earliest: keep running
	}
	t.state = stateReady
	g.stats.Parks++
	g.stats.Switches++
	nt.state = stateRunning
	nt.resume <- struct{}{}
	<-t.resume
	t.checkPoison()
}

// exitPar retires a task of a parallel kernel and passes the group baton.
func (t *Task) exitPar() {
	e := t.eng
	g := e.par.groups[t.gid]
	t.state = stateDone
	g.exited++
	e.dispatchPar(g)
}

// liveNow is the number of registered, not yet exited tasks. Group exit
// counts are only read between rounds.
func (e *Engine) liveNow() int {
	n := e.live
	for _, g := range e.par.groups {
		n -= g.exited
	}
	return n
}

// anyEventPar reports whether any group or the global callback queue holds
// a pending event.
func (e *Engine) anyEventPar() bool {
	if e.queue.Len() > 0 {
		return true
	}
	for _, g := range e.par.groups {
		if g.queue.Len() > 0 {
			return true
		}
	}
	return false
}

// runPar is the coordinator loop: callbacks between rounds, safe-window
// rounds across groups, outbox replay at each barrier.
func (e *Engine) runPar() {
	p := e.par
	for {
		// Earliest pending task event across the groups. Between rounds
		// every batch is fully consumed, so the queue head is the truth.
		minAt, any := vclock.Never, false
		for _, g := range p.groups {
			if h, ok := g.queue.Peek(); ok && (!any || h.At < minAt) {
				minAt, any = h.At, true
			}
		}
		// Callbacks due no later than every task event run now, at the
		// coordinator, holding the whole kernel still — the parallel
		// counterpart of the serial baton. (At equal instants the callback
		// runs first; the supported callback pattern — injection armed
		// before Run, against wakeups pushed mid-run — pops in the same
		// order serially, where the earlier-scheduled event wins.)
		if cb, ok := e.queue.Peek(); ok && cb.At <= minAt {
			ev, _ := e.next()
			if ev.Payload.task != nil {
				panic("engine: task event on the global queue of a parallel kernel")
			}
			e.stats.Events++
			e.runCallback(ev.Payload.cb)
			continue // the callback may have scheduled anything: recompute
		}
		if !any {
			if e.liveNow() == 0 {
				break
			}
			e.poisonPar()
			continue
		}
		w := minAt + p.lookahead
		if cb, ok := e.queue.Peek(); ok && cb.At < w {
			w = cb.At // never run a group past a pending callback
		}
		p.windowEnd = w
		p.inRound = true
		e.stats.Rounds++
		e.stats.WindowSum += w - minAt
		active := 0
		for _, g := range p.groups {
			if h, ok := g.queue.Peek(); ok && h.At < w {
				active++
				e.dispatchPar(g) // kickstart the group's chain
			}
		}
		e.stats.GroupRuns += uint64(active)
		for i := 0; i < active; i++ {
			<-p.roundDone
		}
		p.inRound = false
		e.applyOutboxes()
		parked := 0
		for _, g := range p.groups {
			parked += len(g.blocked)
		}
		if parked > e.stats.PeakParked {
			e.stats.PeakParked = parked
		}
		if e.liveNow() == 0 {
			break
		}
	}
	for _, g := range p.groups {
		e.stats.Events += g.stats.Events
		e.stats.Parks += g.stats.Parks
		e.stats.Switches += g.stats.Switches
		e.stats.Kept += g.stats.Kept
	}
}

// applyOutboxes replays every group's deferred cross-group effects in group
// order. The closures run with the kernel quiescent (inRound is false), so
// nested Defer calls execute immediately, like serial code would.
func (e *Engine) applyOutboxes() {
	for _, g := range e.par.groups {
		for i := 0; i < len(g.outbox); i++ {
			fn := g.outbox[i]
			g.outbox[i] = nil
			e.stats.CrossEvents++
			fn()
		}
		g.outbox = g.outbox[:0]
	}
}

// poisonPar is the parallel deadlock path: no pending event anywhere, yet
// live tasks remain — all of them blocked. Like the serial kernel it fails
// them one at a time (each teardown may push events; if one does, normal
// rounds resume), walking the groups in order.
func (e *Engine) poisonPar() {
	p := e.par
	e.poison = true
	p.windowEnd = vclock.Never
	p.inRound = true
	poisoned := false
	for _, g := range p.groups {
		for len(g.blocked) > 0 {
			t := g.blocked[0]
			g.unblock(t)
			t.state = stateRunning
			t.poison = true
			poisoned = true
			t.resume <- struct{}{}
			<-p.roundDone
			if e.anyEventPar() {
				// Teardown scheduled work: back to normal rounds.
				p.inRound = false
				e.applyOutboxes()
				return
			}
		}
	}
	p.inRound = false
	e.applyOutboxes()
	if !poisoned {
		panic(fmt.Sprintf("engine: %d live tasks but none blocked and no events", e.liveNow()))
	}
}

// blockedCount is the number of parked tasks across the kernel (all groups
// on a parallel kernel), for the deadlock report.
func (e *Engine) blockedCount() int {
	if e.par == nil {
		return len(e.blocked)
	}
	n := 0
	for _, g := range e.par.groups {
		n += len(g.blocked)
	}
	return n
}
