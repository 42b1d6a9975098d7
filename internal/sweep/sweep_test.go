package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clusterbooster/internal/xpic"
)

// testGrid is the reference grid of the engine tests: 2 node counts × 3
// modes × 2 workloads = 12 scenarios, all real xPic runs. The 4-node point
// matters: with ≥3 ranks per solver, halo exchanges fan into each rank's
// ejection link from two senders, which is exactly where determinism under
// host parallelism historically broke.
func testGrid() Grid {
	return Grid{
		Name:       "test",
		NodeCounts: []int{1, 4},
		Modes:      []xpic.Mode{xpic.ClusterOnly, xpic.BoosterOnly, xpic.SplitCB},
		Workloads: []WorkloadVariant{
			{Name: "s3", Config: xpic.QuickConfig(3)},
			{Name: "s5", Config: xpic.QuickConfig(5)},
		},
	}
}

// TestDeterministicJSONUnderParallelism runs the same grid twice — serial
// and with a wide worker pool — and requires byte-identical aggregated JSON:
// the acceptance property of the engine.
func TestDeterministicJSONUnderParallelism(t *testing.T) {
	emit := func(workers int) []byte {
		scenarios, err := testGrid().Scenarios()
		if err != nil {
			t.Fatal(err)
		}
		rs := Run(scenarios, Options{Workers: workers})
		if rs.Failures != 0 {
			t.Fatalf("workers=%d: %d failures, first: %v", workers, rs.Failures, rs.FirstError())
		}
		b, err := json.MarshalIndent(rs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := emit(1)
	parallel := emit(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("aggregated JSON differs between workers=1 and workers=8")
	}
	parallel2 := emit(8)
	if !bytes.Equal(parallel, parallel2) {
		t.Fatal("aggregated JSON differs between two workers=8 runs")
	}
}

// TestWorkerPoolBounded checks the pool never exceeds Options.Workers.
func TestWorkerPoolBounded(t *testing.T) {
	const workers = 3
	var active, peak int64
	scenarios := make([]Scenario, 12)
	for i := range scenarios {
		scenarios[i] = Scenario{
			Name: fmt.Sprintf("bounded/%d", i),
			Run: func() (Outcome, error) {
				cur := atomic.AddInt64(&active, 1)
				for {
					old := atomic.LoadInt64(&peak)
					if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
						break
					}
				}
				time.Sleep(5 * time.Millisecond)
				atomic.AddInt64(&active, -1)
				return Outcome{Metrics: Metrics{"ok": 1}}, nil
			},
		}
	}
	rs := Run(scenarios, Options{Workers: workers})
	if rs.Failures != 0 {
		t.Fatalf("%d failures", rs.Failures)
	}
	if p := atomic.LoadInt64(&peak); p > workers {
		t.Fatalf("observed %d concurrent scenarios, pool bound is %d", p, workers)
	}
}

// TestScenariosActuallyOverlap proves the engine is concurrent, not merely
// interleaved: two scenarios rendezvous mid-run, which only completes if
// both are in flight at once.
func TestScenariosActuallyOverlap(t *testing.T) {
	var barrier sync.WaitGroup
	barrier.Add(2)
	meet := func() (Outcome, error) {
		barrier.Done()
		done := make(chan struct{})
		go func() { barrier.Wait(); close(done) }()
		select {
		case <-done:
			return Outcome{Metrics: Metrics{"met": 1}}, nil
		case <-time.After(10 * time.Second):
			return Outcome{}, fmt.Errorf("rendezvous timed out: scenarios did not overlap")
		}
	}
	rs := Run([]Scenario{
		{Name: "left", Run: meet},
		{Name: "right", Run: meet},
	}, Options{Workers: 2})
	if err := rs.FirstError(); err != nil {
		t.Fatal(err)
	}
}

// TestFailureIsolation: an erroring scenario and a panicking scenario are
// recorded per-scenario; the rest of the sweep completes normally.
func TestFailureIsolation(t *testing.T) {
	scenarios := []Scenario{
		{Name: "ok-1", Run: func() (Outcome, error) {
			return Outcome{Metrics: Metrics{"v": 1}}, nil
		}},
		{Name: "fails", Run: func() (Outcome, error) {
			return Outcome{}, fmt.Errorf("synthetic failure")
		}},
		{Name: "panics", Run: func() (Outcome, error) {
			panic("synthetic panic")
		}},
		{Name: "no-run"},
		{Name: "ok-2", Run: func() (Outcome, error) {
			return Outcome{Metrics: Metrics{"v": 2}}, nil
		}},
	}
	rs := Run(scenarios, Options{Workers: 4})
	if rs.Scenarios != 5 || rs.Failures != 3 {
		t.Fatalf("scenarios=%d failures=%d, want 5/3", rs.Scenarios, rs.Failures)
	}
	if got := rs.Results[1].Error; !strings.Contains(got, "synthetic failure") {
		t.Errorf("error result: %q", got)
	}
	if got := rs.Results[2].Error; !strings.Contains(got, "panic: synthetic panic") {
		t.Errorf("panic result: %q", got)
	}
	if got := rs.Results[3].Error; !strings.Contains(got, "no run function") {
		t.Errorf("nil-run result: %q", got)
	}
	for _, i := range []int{0, 4} {
		if rs.Results[i].Error != "" || rs.Results[i].Metrics == nil {
			t.Errorf("healthy scenario %d contaminated: %+v", i, rs.Results[i])
		}
	}
	if rs.FirstError() == nil {
		t.Error("FirstError() = nil with failures present")
	}
}

// TestResultsInDefinitionOrder: completion order must not leak into the
// aggregation (scenarios finish in reverse via staggered sleeps).
func TestResultsInDefinitionOrder(t *testing.T) {
	const n = 6
	scenarios := make([]Scenario, n)
	for i := range scenarios {
		scenarios[i] = Scenario{
			Name: fmt.Sprintf("s%d", i),
			Run: func() (Outcome, error) {
				time.Sleep(time.Duration(n-i) * 3 * time.Millisecond)
				return Outcome{Metrics: Metrics{"i": float64(i)}}, nil
			},
		}
	}
	rs := Run(scenarios, Options{Workers: n})
	for i, r := range rs.Results {
		if r.Index != i || r.Name != fmt.Sprintf("s%d", i) || r.Metrics["i"] != float64(i) {
			t.Fatalf("result %d out of order: %+v", i, r)
		}
	}
}

// TestObserverSeesEveryScenario counts start/done events.
func TestObserverSeesEveryScenario(t *testing.T) {
	var starts, dones, fails int64
	scenarios, err := testGrid().Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	scenarios = scenarios[:4]
	scenarios[2].Run = func() (Outcome, error) { return Outcome{}, fmt.Errorf("boom") }
	Run(scenarios, Options{Workers: 2, Observer: func(ev Event) {
		switch ev.Kind {
		case ScenarioStart:
			atomic.AddInt64(&starts, 1)
		case ScenarioDone:
			atomic.AddInt64(&dones, 1)
			if ev.Err != nil {
				atomic.AddInt64(&fails, 1)
			}
		}
	}})
	if starts != 4 || dones != 4 || fails != 1 {
		t.Fatalf("starts=%d dones=%d fails=%d, want 4/4/1", starts, dones, fails)
	}
}

// TestEmptySweep is a degenerate-input guard.
func TestEmptySweep(t *testing.T) {
	rs := Run(nil, Options{Workers: 4})
	if rs.Scenarios != 0 || rs.Failures != 0 || len(rs.Results) != 0 {
		t.Fatalf("empty sweep produced %+v", rs)
	}
	if err := rs.FirstError(); err != nil {
		t.Fatal(err)
	}
}

// TestRenderText smoke-checks the human-readable table.
func TestRenderText(t *testing.T) {
	scenarios, err := testGrid().Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	rs := Run(scenarios[:2], Options{Workers: 2})
	txt := rs.RenderText()
	if !strings.Contains(txt, "2 scenarios") || !strings.Contains(txt, "test/n=1/Cluster/s3") {
		t.Errorf("render incomplete:\n%s", txt)
	}
}
