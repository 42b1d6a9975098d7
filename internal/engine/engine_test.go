package engine

import (
	"fmt"
	"sync"
	"testing"

	"clusterbooster/internal/vclock"
)

// job runs n task goroutines under one kernel and waits for them all; each
// body receives its task and index. Panics are returned per task.
func job(n int, body func(t *Task, i int)) []any {
	e := New()
	tasks := make([]*Task, n)
	panics := make([]any, n)
	for i := 0; i < n; i++ {
		tasks[i] = e.NewTask(fmt.Sprintf("task %d", i))
		tasks[i].StartAt(0)
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			defer tasks[i].Exit()
			defer func() { panics[i] = recover() }()
			tasks[i].WaitStart()
			body(tasks[i], i)
		}(i)
	}
	e.Run()
	wg.Wait()
	return panics
}

// TestStartOrder checks that equal-time start events fire in schedule order
// (the stable tiebreak).
func TestStartOrder(t *testing.T) {
	var order []int
	var mu sync.Mutex
	job(8, func(tk *Task, i int) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("start order %v, want ascending", order)
		}
	}
}

// TestParkWake ping-pongs two tasks through Park/WakeAt and checks strict
// alternation — the cooperative schedule admits exactly one runner.
func TestParkWake(t *testing.T) {
	var tasks [2]*Task
	var log []string
	e := New()
	for i := range tasks {
		tasks[i] = e.NewTask(fmt.Sprintf("t%d", i))
	}
	tasks[0].StartAt(0)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer tasks[0].Exit()
		tasks[0].WaitStart()
		for i := 0; i < 3; i++ {
			log = append(log, "a")
			if i == 0 {
				tasks[1].StartAt(vclock.Microsecond)
			} else {
				tasks[1].WakeAt(vclock.Time(i) * vclock.Microsecond)
			}
			tasks[0].Park()
		}
		log = append(log, "a-end")
		tasks[1].WakeAt(vclock.Second)
	}()
	go func() {
		defer wg.Done()
		defer tasks[1].Exit()
		tasks[1].WaitStart()
		for i := 0; i < 3; i++ {
			log = append(log, "b")
			tasks[0].WakeAt(vclock.Time(i) * vclock.Microsecond)
			if i < 2 {
				tasks[1].Park()
			}
		}
		tasks[1].Park() // until a-end wakes us
		log = append(log, "b-end")
	}()
	e.Run()
	wg.Wait()
	want := "a b a b a b a-end b-end"
	got := ""
	for i, s := range log {
		if i > 0 {
			got += " "
		}
		got += s
	}
	if got != want {
		t.Fatalf("schedule order %q, want %q", got, want)
	}
	st := e.stats
	if st.Tasks != 2 || st.Events == 0 || st.PeakParked != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSleepUntilOrdersByTime runs tasks that sleep to distinct virtual times
// and records the resume order.
func TestSleepUntilOrdersByTime(t *testing.T) {
	var order []int
	var mu sync.Mutex
	job(5, func(tk *Task, i int) {
		// Later tasks sleep to earlier times: resume order must invert.
		tk.SleepUntil(vclock.Time(10-i) * vclock.Microsecond)
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
	})
	want := []int{4, 3, 2, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("resume order %v, want %v", order, want)
		}
	}
}

// TestDeadlockDetected: tasks that all park with no pending events must fail
// with the kernel's deadlock error instead of hanging the process.
func TestDeadlockDetected(t *testing.T) {
	panics := job(3, func(tk *Task, i int) {
		tk.Park() // nobody will ever wake us
	})
	for i, p := range panics {
		if p == nil {
			t.Fatalf("task %d: no deadlock panic", i)
		}
	}
}

// TestManyTasksRace exercises park/resume across thousands of tasks — run
// with -race, this is the kernel's serialisation proof: tasks mutate shared
// state with no locking, which is only safe if exactly one runs at a time.
func TestManyTasksRace(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 500
	}
	shared := 0 // unsynchronised on purpose
	job(n, func(tk *Task, i int) {
		for k := 0; k < 3; k++ {
			shared++
			tk.SleepUntil(vclock.Time(k+1) * vclock.Microsecond)
		}
	})
	if shared != 3*n {
		t.Fatalf("shared = %d, want %d", shared, 3*n)
	}
}

func TestGlobalStatsAggregate(t *testing.T) {
	before := Global()
	job(4, func(tk *Task, i int) { tk.SleepUntil(vclock.Microsecond) })
	after := Global()
	if after.Engines <= before.Engines || after.Events <= before.Events {
		t.Fatalf("global stats did not grow: %+v -> %+v", before, after)
	}
	if after.String() == "" {
		t.Fatal("empty stats rendering")
	}
}
