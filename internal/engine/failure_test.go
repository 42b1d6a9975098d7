package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"clusterbooster/internal/vclock"
)

// TestCallAtRunsInVirtualOrder checks that callback events interleave with
// task wakeups in (time, schedule) order and run holding the baton.
func TestCallAtRunsInVirtualOrder(t *testing.T) {
	e := New()
	var log []string
	tk := e.NewTask("t")
	tk.StartAt(0)
	e.CallAt(1*vclock.Microsecond, func() { log = append(log, "cb@1") })
	e.CallAt(3*vclock.Microsecond, func() { log = append(log, "cb@3") })
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer tk.Exit()
		tk.WaitStart()
		log = append(log, "start")
		tk.SleepUntil(2 * vclock.Microsecond) // cb@1 runs on the way
		log = append(log, "woke@2")
		tk.SleepUntil(4 * vclock.Microsecond) // cb@3 runs on the way
		log = append(log, "woke@4")
	}()
	e.Run()
	wg.Wait()
	want := []string{"start", "cb@1", "woke@2", "cb@3", "woke@4"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", log, want)
	}
}

// TestCallAtPendingAfterLastExit checks that callbacks scheduled past the end
// of the job never fire.
func TestCallAtPendingAfterLastExit(t *testing.T) {
	e := New()
	fired := false
	tk := e.NewTask("t")
	tk.StartAt(0)
	e.CallAt(vclock.Second, func() { fired = true })
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer tk.Exit()
		tk.WaitStart()
	}()
	e.Run()
	wg.Wait()
	if fired {
		t.Fatal("callback fired after the last task exited")
	}
}

// TestFailParkedTask checks that failing a parked task wakes it at the
// failure instant with a TaskFailure carrying the reason.
func TestFailParkedTask(t *testing.T) {
	reason := errors.New("node died")
	e := New()
	victim := e.NewTask("victim")
	victim.StartAt(0)
	e.CallAt(5*vclock.Microsecond, func() { victim.Fail(5*vclock.Microsecond, reason) })
	var recovered any
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer victim.Exit()
		defer func() { recovered = recover() }()
		victim.WaitStart()
		victim.Park() // nothing will ever wake it, except the failure
	}()
	e.Run()
	wg.Wait()
	tf, ok := recovered.(*TaskFailure)
	if !ok {
		t.Fatalf("recovered %v (%T), want *TaskFailure", recovered, recovered)
	}
	if !errors.Is(tf, reason) {
		t.Fatalf("failure reason %v, want %v", tf.Reason, reason)
	}
	if tf.Task != "victim" {
		t.Fatalf("failure task %q, want victim", tf.Task)
	}
}

// TestFailReadyTask checks that a task with a pending wakeup dies when that
// event fires, and that the first Fail reason wins.
func TestFailReadyTask(t *testing.T) {
	first := errors.New("first")
	e := New()
	victim := e.NewTask("victim")
	victim.StartAt(0)
	e.CallAt(1*vclock.Microsecond, func() {
		victim.Fail(1*vclock.Microsecond, first)
		victim.Fail(1*vclock.Microsecond, errors.New("second"))
	})
	var recovered any
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer victim.Exit()
		defer func() { recovered = recover() }()
		victim.WaitStart()
		victim.SleepUntil(2 * vclock.Microsecond) // own wakeup pending at 2µs
		t.Error("victim survived its failure")
	}()
	e.Run()
	wg.Wait()
	tf, ok := recovered.(*TaskFailure)
	if !ok || !errors.Is(tf, first) {
		t.Fatalf("recovered %v, want TaskFailure(%v)", recovered, first)
	}
}

// TestParallelFailureOnWindowBoundary fails tasks stepping side by side at
// an instant on their common step boundary, where their own wakeups are
// pending too. The teardown callback, scheduled before Run, precedes every
// wakeup pushed later at that instant, so no task completes the shared
// step. A failure just past the instant lets every task complete it.
func TestParallelFailureOnWindowBoundary(t *testing.T) {
	cause := errors.New("node down")
	for _, tc := range []struct {
		failAt vclock.Time
		want   []vclock.Time // each task's last completed step
	}{
		{6 * vclock.Microsecond, []vclock.Time{5e-6, 4e-6, 5e-6, 4e-6}},
		{6*vclock.Microsecond + 1e-9, []vclock.Time{6e-6, 6e-6, 6e-6, 6e-6}},
	} {
		got := failSteppingTasks(tc.failAt, cause)
		for i := range tc.want {
			if got[i] != fmt.Sprintf("failed=%v last=%v", cause, tc.want[i]) {
				t.Errorf("failAt=%v task %d: %s, want last=%v", tc.failAt, i, got[i], tc.want[i])
			}
		}
	}
}

// failSteppingTasks runs four tasks stepping their clocks by 1µs (even
// tasks) or 2µs (odd tasks) until a callback fails them all at failAt, and
// reports each task's fate and the virtual time of its last completed step.
func failSteppingTasks(failAt vclock.Time, reason error) []string {
	const n = 4
	e := New()
	tasks := make([]*Task, n)
	fates := make([]string, n)
	for i := range tasks {
		tasks[i] = e.NewTask(fmt.Sprintf("task %d", i))
		tasks[i].StartAt(0)
	}
	e.CallAt(failAt, func() {
		for _, tk := range tasks {
			tk.Fail(failAt, reason)
		}
	})
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range tasks {
		go func(i int) {
			defer wg.Done()
			defer tasks[i].Exit()
			last := vclock.Time(0)
			defer func() {
				if tf, ok := recover().(*TaskFailure); ok {
					fates[i] = fmt.Sprintf("failed=%v last=%v", tf.Reason, last)
				}
			}()
			tasks[i].WaitStart()
			for k := 1; ; k++ {
				at := vclock.Time(k*(1+i%2)) * vclock.Microsecond
				tasks[i].SleepUntil(at)
				last = at
			}
		}(i)
	}
	e.Run()
	wg.Wait()
	return fates
}

// TestFailRunningTaskDiesAtNextKernelTouch checks that the currently running
// task survives until its next scheduling point after a callback fails it.
func TestFailRunningTaskDiesAtNextKernelTouch(t *testing.T) {
	reason := errors.New("pulled the plug")
	e := New()
	tk := e.NewTask("t")
	tk.StartAt(0)
	e.CallAt(1*vclock.Microsecond, func() { tk.Fail(1*vclock.Microsecond, reason) })
	var recovered any
	ranPast := false
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer tk.Exit()
		defer func() { recovered = recover() }()
		tk.WaitStart()
		// The callback at 1µs fails this very task while it holds the baton.
		tk.SleepUntil(2 * vclock.Microsecond)
		ranPast = true
	}()
	e.Run()
	wg.Wait()
	if ranPast {
		t.Fatal("task ran past the failing scheduling point")
	}
	if tf, ok := recovered.(*TaskFailure); !ok || !errors.Is(tf, reason) {
		t.Fatalf("recovered %v, want TaskFailure(%v)", recovered, reason)
	}
}

// TestFailAllNoDeadlockReport fails every task of a blocked job and checks
// each dies with its failure reason, not a deadlock report — the abort path
// must not trip the deadlock detector.
func TestFailAllNoDeadlockReport(t *testing.T) {
	const n = 4
	reason := errors.New("job aborted")
	e := New()
	tasks := make([]*Task, n)
	for i := range tasks {
		tasks[i] = e.NewTask(fmt.Sprintf("t%d", i))
		tasks[i].StartAt(0)
	}
	e.CallAt(1*vclock.Microsecond, func() {
		for _, tk := range tasks {
			tk.Fail(1*vclock.Microsecond, reason)
		}
	})
	recovered := make([]any, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range tasks {
		go func(i int) {
			defer wg.Done()
			defer tasks[i].Exit()
			defer func() { recovered[i] = recover() }()
			tasks[i].WaitStart()
			tasks[i].Park() // everyone blocks; only the failure ends the job
		}(i)
	}
	e.Run()
	wg.Wait()
	for i, r := range recovered {
		tf, ok := r.(*TaskFailure)
		if !ok {
			t.Fatalf("task %d recovered %v (%T), want *TaskFailure", i, r, r)
		}
		if !errors.Is(tf, reason) {
			t.Fatalf("task %d reason %v, want %v", i, tf.Reason, reason)
		}
	}
}

// TestFailDoneTaskIsNoop checks Fail after Exit does nothing.
func TestFailDoneTaskIsNoop(t *testing.T) {
	e := New()
	a := e.NewTask("a")
	b := e.NewTask("b")
	a.StartAt(0)
	b.StartAt(1 * vclock.Microsecond)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer a.Exit()
		a.WaitStart()
	}()
	var recovered any
	go func() {
		defer wg.Done()
		defer b.Exit()
		defer func() { recovered = recover() }()
		b.WaitStart()
		a.Fail(2*vclock.Microsecond, errors.New("too late")) // a already exited
	}()
	e.Run()
	wg.Wait()
	if recovered != nil {
		t.Fatalf("failing a done task panicked: %v", recovered)
	}
}
