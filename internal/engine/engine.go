// Package engine is the discrete-event execution kernel of the simulation
// platform: a central virtual-time scheduler that runs the goroutines of a
// simulated job cooperatively, one at a time, in event order.
//
// Every simulated execution context (an MPI rank, a spawned child) is a Task.
// A task runs until it blocks — on a receive with no matching message, on a
// rendezvous send awaiting its match, on a device completion — and then parks
// in the engine. Whoever makes the task runnable again (the matching sender,
// the receiver that resolves the handshake, the task's own timer) schedules a
// wakeup event on the kernel's event queue, which is ordered by virtual
// time with a stable schedule-order tiebreak. Parking hands the execution
// baton to the earliest pending event, so exactly one task executes at any
// moment and the event order — hence the simulation — is deterministic by
// construction: host scheduling never decides anything.
//
// The queue is a 4-ary min-heap (vclock.Queue) carrying a tagged event
// record — a task pointer or a callback index, nothing boxed in an
// interface — so steady-state event traffic allocates nothing. Three fast
// paths keep the per-event constant factor down:
//
//   - Direct handoff. The wake-then-park pattern (a sender resolves a match,
//     wakes the receiver, parks) costs one push and one pop. When the wakeup
//     is the only pending event, as in a ping-pong, both are O(1) on the
//     heap: nothing sifts.
//
//   - Keep the baton. A task sleeping to a wakeup strictly earlier than
//     every pending event (SleepUntil, device waits) never enqueues at all:
//     it keeps running, paying no queue traffic and no goroutine switch.
//
//   - Wakeup batching. Events due at one instant — a collective fan-out
//     waking a whole tree level — are drained from the queue in a single
//     batch, and the baton is handed down the batch without per-event queue
//     operations.
//
// A blocked task with no pending event to wake it would previously hang the
// process; the kernel detects this (no pending events with live blocked
// tasks) and fails every blocked task with a deadlock error instead.
//
// Beyond task wakeups, the queue carries callback events (CallAt): a function
// scheduled at a virtual time, executed while holding the baton between task
// switches. Fault injection is built on them — a failure event fires as a
// callback, calls Fail on the affected tasks, and the kernel tears each one
// down with a TaskFailure panic at its next scheduling point (parked tasks
// are woken at the failure instant just to die). Because teardown goes
// through the ordinary event machinery, a job aborted by a failure drains
// cleanly instead of tripping the deadlock detector.
//
// Engines and their task structs are pooled: Recycle returns a finished
// kernel (queue capacity, callback registry, task structs and their resume
// channels included) for the next launch, so a sweep running thousands of
// scenarios re-boots kernels out of warm memory.
package engine

import (
	"fmt"
	"sync"
	"time"

	"clusterbooster/internal/vclock"
)

// task states.
const (
	stateCreated = iota // registered, not yet scheduled
	stateReady          // has a pending event in the queue
	stateRunning        // holds the execution baton
	stateBlocked        // parked, waiting for another task to wake it
	stateDone           // exited
)

// kev is the tagged event record: exactly one of task (a wakeup) or cb (a
// 1-based index into the engine's callback registry) is set. Storing the tag
// inline in the queue's entry — instead of boxing the payload in an
// `any` — removes an allocation and an interface dispatch from every
// scheduled event.
type kev struct {
	task *Task
	cb   int32
}

// Engine is one discrete-event kernel instance, driving the tasks of one
// simulated job tree. All Engine and Task methods except Run must be called
// either before Run or from the currently running task ("holding the
// baton"); the kernel's serialisation makes that safe without locks.
type Engine struct {
	queue   vclock.Queue[kev]
	batch   []vclock.Entry[kev] // drained same-instant events, consumed first
	bi      int                 // next unconsumed batch index
	blocked []*Task             // tasks parked without a pending event
	live    int                 // registered, not yet exited
	poison  bool                // deadlock detected: blocked tasks fail on resume
	done    chan struct{}

	cbs    []func() // callback registry, indexed by kev.cb-1
	cbFree []int32  // free registry slots

	tasks    []*Task // every task of this run, for recycling
	taskFree []*Task // retired task structs ready for reuse

	stats Stats
}

// enginePool recycles kernels across launches: queue capacity, callback
// registry, batch buffer and task structs all come back warm.
var enginePool = sync.Pool{New: func() any { return new(Engine) }}

// New returns an empty kernel, reusing a recycled one when available.
func New() *Engine {
	e := enginePool.Get().(*Engine)
	e.done = make(chan struct{})
	return e
}

// Recycle returns a finished kernel to the pool for the next launch. Only
// call it after Run has returned and every result (Stats included) has been
// read; the engine and all its tasks are dead to the caller afterwards.
func (e *Engine) Recycle() {
	e.queue.Reset()
	for i := range e.batch {
		e.batch[i] = vclock.Entry[kev]{}
	}
	e.batch = e.batch[:0]
	e.bi = 0
	for i := range e.blocked {
		e.blocked[i] = nil
	}
	e.blocked = e.blocked[:0]
	for i := range e.cbs {
		e.cbs[i] = nil
	}
	e.cbs = e.cbs[:0]
	e.cbFree = e.cbFree[:0]
	for _, t := range e.tasks {
		t.reset()
		e.taskFree = append(e.taskFree, t)
	}
	e.tasks = e.tasks[:0]
	e.live = 0
	e.poison = false
	e.done = nil
	e.stats = Stats{}
	enginePool.Put(e)
}

// Task is one simulated execution context bound to an Engine.
type Task struct {
	eng     *Engine
	label   string // free-form name, or the node name for rank tasks
	rank    int    // rank id when >= 0; the name is then "rank R @ label"
	resume  chan struct{}
	state   int
	bIdx    int   // index in the blocked set while stateBlocked
	poison  bool  // woken only to fail with a deadlock error
	failure error // set by Fail: the task dies at its next scheduling point
}

// name renders the task's diagnostic name. Rank tasks store the parts and
// format lazily — names appear only in failure reports, and a fig8-scale
// launch would otherwise pay thousands of Sprintfs just to boot.
func (t *Task) name() string {
	if t.rank >= 0 {
		return fmt.Sprintf("rank %d @ %s", t.rank, t.label)
	}
	return t.label
}

// reset prepares a retired task struct for reuse; the resume channel is
// empty (every handoff is consumed before a task exits) and kept.
func (t *Task) reset() {
	t.label = ""
	t.rank = -1
	t.state = stateCreated
	t.bIdx = 0
	t.poison = false
	t.failure = nil
}

// TaskFailure is the panic value a task dies with after Fail: the kernel
// raises it at the task's next scheduling point. Job runners recover it and
// record Reason as the task's error.
type TaskFailure struct {
	Task   string
	Reason error
}

// Error renders the failure; TaskFailure is an error so recovered panics can
// travel through error-wrapping paths unchanged.
func (f *TaskFailure) Error() string {
	return fmt.Sprintf("task %q torn down: %v", f.Task, f.Reason)
}

// Unwrap exposes the teardown reason to errors.Is/As.
func (f *TaskFailure) Unwrap() error { return f.Reason }

// newTask registers a task with the given name parts (rank < 0 for plain
// labels). Task structs come from the recycle pool when available.
func (e *Engine) newTask(label string, rank int) *Task {
	var t *Task
	if n := len(e.taskFree); n > 0 {
		t = e.taskFree[n-1]
		e.taskFree[n-1] = nil
		e.taskFree = e.taskFree[:n-1]
	} else {
		t = &Task{resume: make(chan struct{}, 1)}
	}
	t.eng = e
	t.label = label
	t.rank = rank
	t.state = stateCreated
	e.tasks = append(e.tasks, t)
	e.live++
	e.stats.Tasks++
	return t
}

// NewTask registers a task. Call StartAt to schedule its first run; the
// task's goroutine must call WaitStart before touching any simulation state
// and Exit (via defer) when it returns.
func (e *Engine) NewTask(name string) *Task { return e.newTask(name, -1) }

// NewRankTask registers a task named "rank R @ node" without formatting the
// name up front (it is rendered only if the task ever fails).
func (e *Engine) NewRankTask(rank int, node string) *Task { return e.newTask(node, rank) }

// StartAt schedules the task's first execution at virtual time at.
func (t *Task) StartAt(at vclock.Time) {
	if t.state != stateCreated {
		panic(fmt.Sprintf("engine: StartAt on task %q in state %d", t.name(), t.state))
	}
	t.state = stateReady
	t.eng.queue.Push(at, kev{task: t})
}

// WaitStart blocks the task's goroutine until its start event fires.
func (t *Task) WaitStart() {
	<-t.resume
	t.checkPoison()
}

// Park blocks the task until another task calls WakeAt on it. The baton
// passes to the earliest pending event; if there is none, every live task is
// blocked and the kernel fails them all with a deadlock error (Park panics;
// the job runner converts rank panics to errors).
func (t *Task) Park() {
	e := t.eng
	t.state = stateBlocked
	t.bIdx = len(e.blocked)
	e.blocked = append(e.blocked, t)
	e.stats.Parks++
	e.notePeak()
	e.dispatch()
	<-t.resume
	t.checkPoison()
}

// WakeAt schedules a wakeup event for a blocked task at virtual time at.
// Only the condition-resolver that knows the task is parked may call it.
func (t *Task) WakeAt(at vclock.Time) {
	if t.state != stateBlocked {
		panic(fmt.Sprintf("engine: WakeAt on task %q in state %d", t.name(), t.state))
	}
	t.eng.unblock(t)
	t.state = stateReady
	t.eng.queue.Push(at, kev{task: t})
}

// CallAt schedules fn to run at virtual time at, holding the baton: no task
// executes while a callback runs, so fn may touch any kernel or model state
// (schedule events, wake or fail tasks). Callbacks scheduled for the same
// instant as task wakeups fire in schedule order, like any event. A callback
// still pending when the last task exits never runs.
func (e *Engine) CallAt(at vclock.Time, fn func()) {
	if fn == nil {
		panic("engine: CallAt with nil callback")
	}
	var idx int32
	if n := len(e.cbFree); n > 0 {
		idx = e.cbFree[n-1]
		e.cbFree = e.cbFree[:n-1]
		e.cbs[idx] = fn
	} else {
		e.cbs = append(e.cbs, fn)
		idx = int32(len(e.cbs) - 1)
	}
	e.queue.Push(at, kev{cb: idx + 1})
}

// runCallback executes a popped callback event and frees its registry slot.
func (e *Engine) runCallback(cb int32) {
	fn := e.cbs[cb-1]
	e.cbs[cb-1] = nil
	e.cbFree = append(e.cbFree, cb-1)
	e.stats.Callbacks++
	fn()
}

// Fail marks the task for teardown with the given reason: at its next
// scheduling point the kernel panics it with a *TaskFailure carrying reason.
// A parked task is woken at virtual time at just to die; ready or running
// tasks die when their next event fires or they next touch the kernel. The
// first reason wins; failing a finished task is a no-op.
func (t *Task) Fail(at vclock.Time, reason error) {
	if t.state == stateDone || t.failure != nil {
		return
	}
	t.failure = reason
	if t.state == stateBlocked {
		t.eng.unblock(t)
		t.state = stateReady
		t.eng.queue.Push(at, kev{task: t})
	}
}

// next takes the next pending event: first from the drained same-instant
// batch, then from the queue (draining the next instant's batch in one go).
func (e *Engine) next() (vclock.Entry[kev], bool) {
	if e.bi >= len(e.batch) {
		e.batch = e.queue.PopRun(e.batch[:0])
		e.bi = 0
		if len(e.batch) == 0 {
			return vclock.Entry[kev]{}, false
		}
	}
	ev := e.batch[e.bi]
	e.batch[e.bi] = vclock.Entry[kev]{} // release the task reference
	e.bi++
	return ev, true
}

// pendingAt reports whether an event is pending at or before virtual time
// at — i.e. whether a wakeup scheduled at at would NOT be the next event.
func (e *Engine) pendingAt(at vclock.Time) bool {
	if e.bi < len(e.batch) {
		return true // batched events precede anything pushed now
	}
	head, ok := e.queue.Peek()
	return ok && head.At <= at
}

// SleepUntil schedules the task's own wakeup at virtual time at and yields.
// If the wakeup would be the next event anyway, the task keeps the baton:
// when it is strictly the earliest it returns immediately without touching
// the queue at all, and otherwise it pops its own event back — a timer that
// fires "next" costs at most two queue operations and no goroutine switch.
// Callback events due before the wakeup run inline, in order, on the way.
func (t *Task) SleepUntil(at vclock.Time) {
	e := t.eng
	if !e.pendingAt(at) {
		// Strictly earliest: nothing can run before this wakeup, so the
		// event need not exist. Counted as a processed, baton-keeping event.
		e.stats.Events++
		e.stats.Kept++
		t.checkPoison()
		return
	}
	e.queue.Push(at, kev{task: t})
	for {
		ev, ok := e.next()
		if !ok {
			panic("engine: event queue empty after push")
		}
		e.stats.Events++
		if ev.Payload.task == nil {
			e.runCallback(ev.Payload.cb)
			continue
		}
		nt := ev.Payload.task
		if nt == t {
			e.stats.Kept++
			t.checkPoison()
			return // still the earliest: keep running
		}
		t.state = stateReady
		e.stats.Parks++
		e.stats.Switches++
		nt.state = stateRunning
		nt.resume <- struct{}{}
		<-t.resume
		t.checkPoison()
		return
	}
}

// Exit retires the task: the baton passes to the next event, and the kernel
// completes when the last task exits. Must be deferred by the task's
// goroutine (after any panic recovery that should see the baton held).
func (t *Task) Exit() {
	e := t.eng
	if t.state == stateDone {
		return
	}
	t.state = stateDone
	e.live--
	if e.live == 0 {
		close(e.done)
		return
	}
	e.dispatch()
}

// Run dispatches the first event and blocks until every task has exited.
// It is called once, from the goroutine that built the job (which is not
// itself a task and consumes no virtual time).
func (e *Engine) Run() {
	if e.live == 0 {
		return
	}
	start := time.Now()
	e.dispatch()
	<-e.done
	e.stats.Wall = time.Since(start)
	publishGlobal(e.stats)
}

// dispatch hands the baton to the earliest pending event (running callback
// events inline on the way), or — when no event is pending — declares a
// deadlock and fails the blocked tasks one by one.
func (e *Engine) dispatch() {
	for {
		ev, ok := e.next()
		if !ok {
			break
		}
		e.stats.Events++
		if t := ev.Payload.task; t != nil {
			e.stats.Switches++
			t.state = stateRunning
			t.resume <- struct{}{}
			return
		}
		e.runCallback(ev.Payload.cb)
	}
	// No pending event, yet live tasks remain: every one of them is blocked.
	// Fail them sequentially; each poisoned task panics out of Park, its job
	// wrapper records the error and Exit brings us back here for the next.
	if len(e.blocked) == 0 {
		panic(fmt.Sprintf("engine: %d live tasks but none blocked and no events", e.live))
	}
	e.poison = true
	t := e.blocked[0]
	e.unblock(t)
	t.state = stateRunning
	t.poison = true
	t.resume <- struct{}{}
}

// unblock removes a task from the blocked set (order-free swap removal).
func (e *Engine) unblock(t *Task) {
	last := len(e.blocked) - 1
	e.blocked[t.bIdx] = e.blocked[last]
	e.blocked[t.bIdx].bIdx = t.bIdx
	e.blocked[last] = nil
	e.blocked = e.blocked[:last]
}

// checkPoison tears down a task that was resumed only to die: a Fail victim
// panics with its *TaskFailure, a task woken by the deadlock detector with a
// deadlock report. Failure wins over deadlock poison — the failure is the
// cause, the starved queue its symptom.
func (t *Task) checkPoison() {
	t.state = stateRunning
	if t.failure != nil {
		panic(&TaskFailure{Task: t.name(), Reason: t.failure})
	}
	if t.poison {
		panic(fmt.Sprintf("engine: deadlock: task %q blocked with no pending events (%d tasks affected)",
			t.name(), len(t.eng.blocked)+1))
	}
}

// notePeak records the high-water mark of simultaneously parked tasks. Only
// tasks in the blocked set count: a ready task sitting in the event queue is
// runnable, not parked (through PR 4 this was approximated as live-1, which
// overcounted whenever ready tasks were queued).
func (e *Engine) notePeak() {
	if parked := len(e.blocked); parked > e.stats.PeakParked {
		e.stats.PeakParked = parked
	}
}

// Stats returns this kernel's counters. Valid after Run returns.
func (e *Engine) Stats() Stats { return e.stats }
