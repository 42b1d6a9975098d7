// Package sweep is the concurrent experiment-sweep engine: it takes a set of
// scenario configurations (declared directly, or expanded from a declarative
// Grid), runs each one on its own freshly booted system across a bounded pool
// of host worker goroutines, and aggregates the per-scenario outcomes into a
// single reproducible result set with JSON and text emitters.
//
// Host-parallel execution is safe because every simulation is deterministic
// in virtual time and scenarios share no state: each Scenario.Run boots its
// own core.System (machine, fabric, runtime, storage), so the result set is
// byte-identical regardless of the worker count or host scheduling. The
// paper's evaluations (Figs. 3, 7, 8; Tables I, II of "Application
// Performance on a Cluster-Booster System") are all parameter sweeps of this
// shape, and internal/bench drives them through this engine.
//
// A failure in one scenario (error or panic) is recorded on that scenario's
// Result and does not abort the sweep.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"clusterbooster/internal/xpic"
)

// Metrics is the flat numeric outcome of one scenario. Keys are emitted in
// sorted order by the JSON and text emitters, so a Metrics value is
// deterministic to serialise.
type Metrics map[string]float64

// Outcome is what a scenario's Run returns: the flat metrics every emitter
// understands, plus an optional typed xPic report for scenarios that ran the
// application.
type Outcome struct {
	Metrics Metrics
	// XPic carries the full application report for xPic scenarios (nil for
	// e.g. fabric microbenchmark scenarios).
	XPic *xpic.Report
}

// Scenario is one point of a sweep: a name and a self-contained run function.
// Run must boot everything it needs (fresh system, fresh state) so scenarios
// can execute host-parallel; it must not share mutable state with other
// scenarios.
type Scenario struct {
	Name string
	Run  func() (Outcome, error)
}

// Result is the aggregated outcome of one scenario.
type Result struct {
	// Index is the scenario's position in the sweep definition; results are
	// reported in index order regardless of completion order.
	Index int    `json:"index"`
	Name  string `json:"name"`
	// Error is the scenario's failure (error or recovered panic), empty on
	// success. A failed scenario has no metrics.
	Error   string       `json:"error,omitempty"`
	Metrics Metrics      `json:"metrics,omitempty"`
	XPic    *xpic.Report `json:"xpic,omitempty"`
}

// ResultSet is the aggregated, ordered outcome of a whole sweep.
type ResultSet struct {
	Scenarios int      `json:"scenarios"`
	Failures  int      `json:"failures"`
	Results   []Result `json:"results"`
}

// FirstError materialises the first failure as an error (nil if the whole
// sweep succeeded). Callers that want all-or-nothing semantics on top of the
// engine's keep-going behaviour use this.
func (rs ResultSet) FirstError() error {
	for _, r := range rs.Results {
		if r.Error != "" {
			return fmt.Errorf("sweep: scenario %q: %s", r.Name, r.Error)
		}
	}
	return nil
}

// EventKind tags an Event.
type EventKind int

const (
	// ScenarioStart fires when a worker picks a scenario up.
	ScenarioStart EventKind = iota
	// ScenarioDone fires when a scenario finishes (ok or failed).
	ScenarioDone
)

// Event is a progress notification delivered to Options.Observer.
type Event struct {
	Kind  EventKind
	Index int
	Name  string
	// Err is set on ScenarioDone for failed scenarios.
	Err error
}

// Options tunes a sweep execution. Options only affect scheduling and
// observation, never the aggregated results of the scenarios that run.
type Options struct {
	// Workers bounds the host worker pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Observer, if set, receives progress events. It is called from worker
	// goroutines and must be safe for concurrent use.
	Observer func(Event)
	// Context, if non-nil, cancels the sweep: once done, no further
	// scenario starts and every not-yet-started scenario's Result carries
	// the context's error. Scenarios already running finish normally —
	// simulations are synchronous and are never torn down mid-run.
	Context context.Context
}

// ctxErr reports the cancellation state of the sweep's context.
func (o Options) ctxErr() error {
	if o.Context == nil {
		return nil
	}
	return o.Context.Err()
}

func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes the scenarios across a bounded worker pool and aggregates
// their outcomes in definition order. It never fails as a whole: per-scenario
// errors (including recovered panics) are recorded on the individual Result.
func Run(scenarios []Scenario, opts Options) ResultSet {
	rs := ResultSet{
		Scenarios: len(scenarios),
		Results:   make([]Result, len(scenarios)),
	}
	if len(scenarios) == 0 {
		return rs
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opts.workers(len(scenarios)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				// Checked again at pickup: cancellation between dispatch and
				// pickup must not start new work.
				if err := opts.ctxErr(); err != nil {
					rs.Results[i] = Result{Index: i, Name: scenarios[i].Name,
						Error: fmt.Sprintf("canceled: %v", err)}
					continue
				}
				rs.Results[i] = runOne(i, scenarios[i], opts.Observer)
			}
		}()
	}
	for i := range scenarios {
		if err := opts.ctxErr(); err != nil {
			for j := i; j < len(scenarios); j++ {
				rs.Results[j] = Result{Index: j, Name: scenarios[j].Name,
					Error: fmt.Sprintf("canceled: %v", err)}
			}
			break
		}
		idx <- i
	}
	close(idx)
	wg.Wait()

	for _, r := range rs.Results {
		if r.Error != "" {
			rs.Failures++
		}
	}
	return rs
}

// runOne executes one scenario, converting panics into per-scenario errors so
// a broken configuration cannot take the whole sweep down.
func runOne(i int, s Scenario, observe func(Event)) (res Result) {
	res = Result{Index: i, Name: s.Name}
	if observe != nil {
		observe(Event{Kind: ScenarioStart, Index: i, Name: s.Name})
	}
	defer func() {
		if r := recover(); r != nil {
			res.Error = fmt.Sprintf("panic: %v", r)
			res.Metrics, res.XPic = nil, nil
		}
		if observe != nil {
			var err error
			if res.Error != "" {
				err = fmt.Errorf("%s", res.Error)
			}
			observe(Event{Kind: ScenarioDone, Index: i, Name: s.Name, Err: err})
		}
	}()
	if s.Run == nil {
		res.Error = "scenario has no run function"
		return res
	}
	out, err := s.Run()
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Metrics = out.Metrics
	res.XPic = out.XPic
	return res
}
