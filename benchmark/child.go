package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"clusterbooster/internal/engine"
	"clusterbooster/internal/exp"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/sched"
	"clusterbooster/internal/sweep"
)

// childEnv carries a JSON childSpec from the parent; its presence selects
// the child role, in the benchmark binary and in its test binary alike.
const childEnv = "CBBENCH_CHILD"

// readyLine ends a child's set-up: the parent's setup_s is the time from
// spawning the child to reading this line.
const readyLine = "ready"

type childSpec struct {
	Experiments []string `json:"experiments"`
	// Root is the module root holding the goldens ("" = embedded only).
	Root string `json:"root"`
	// SetupOnly children stop after the ready line: they time set-up alone.
	SetupOnly bool `json:"setup_only,omitempty"`
	// Profile, when set, makes the sample traced: it records spans and
	// writes a CPU profile there.
	Profile string `json:"profile,omitempty"`
	// Sample identifies the sample; it is the trace ID of its spans.
	Sample int `json:"sample"`
}

// sampleResult is the child's last line of output.
type sampleResult struct {
	WallS     float64            `json:"wall_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Spans     []span             `json:"spans,omitempty"`
}

// runChild runs one sample: set-up, one timed pass that runs and
// canonicalises every experiment, then the golden check. Run errors, drift
// and budget violations count as failed experiments; only a broken set-up
// is an error.
func runChild(spec childSpec, out io.Writer) error {
	exps, err := exp.Resolve(spec.Experiments)
	if err != nil {
		return err
	}
	goldens := make([][]byte, len(exps))
	for i, e := range exps {
		if goldens[i], _, err = exp.Golden(e.Name, spec.Root); err != nil {
			return err
		}
	}
	fmt.Fprintln(out, readyLine)
	if spec.SetupOnly {
		return nil
	}

	before := snapshot()
	var rec *recorder
	opts := exp.Options{}
	stopProfile := func() error { return nil }
	if spec.Profile != "" {
		if stopProfile, err = startProfile(spec.Profile); err != nil {
			return err
		}
		rec = newRecorder(spec.Sample)
		opts.Observer = rec.observe
	}

	res := sampleResult{Attempted: len(exps)}
	fail := func(name string, err error) {
		res.Failed++
		res.Failures = append(res.Failures, fmt.Sprintf("%s: %v", name, err))
	}
	docs := make([][]byte, len(exps))
	start := time.Now()
	for i, e := range exps {
		end := rec.begin("run", e.Name)
		doc, err := e.Run(opts)
		end()
		if err != nil {
			fail(e.Name, err)
			continue
		}
		end = rec.begin("canonical", e.Name)
		docs[i], err = doc.Canonical()
		end()
		if err != nil {
			fail(e.Name, err)
		}
	}
	res.WallS = time.Since(start).Seconds()

	docBytes := 0
	for i, e := range exps {
		if docs[i] == nil {
			continue
		}
		docBytes += len(docs[i])
		end := rec.begin("diff", e.Name)
		rep, err := exp.Diff(e, goldens[i], docs[i], false)
		end()
		switch {
		case err != nil:
			fail(e.Name, err)
		case !rep.Clean():
			fail(e.Name, fmt.Errorf("%s: %d drifts, %d budget violations", rep.Status, len(rep.Drifts), len(rep.Violations)))
		}
	}
	if err := stopProfile(); err != nil {
		return err
	}

	res.Metrics = counterMetrics(before, snapshot())
	if rec != nil {
		res.Spans = rec.spans
		for k, v := range rec.metrics() {
			res.Metrics[k] = v
		}
		res.Metrics["exp.doc_bytes"] = float64(docBytes)
	}
	return json.NewEncoder(out).Encode(res)
}

// startProfile starts the CPU profile of a traced sample; the returned
// function stops it and closes the file.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// counters is a snapshot of the simulator's process-wide counter blocks.
type counters struct {
	engine engine.GlobalStats
	sched  sched.Stats
	io     ioev.Stats
	cache  sweep.CacheStats
	mem    runtime.MemStats
}

func snapshot() counters {
	c := counters{engine: engine.Global(), sched: sched.Global(), io: ioev.Global(), cache: sweep.RunCacheStats()}
	runtime.ReadMemStats(&c.mem)
	return c
}

const mib = 1 << 20

func counterMetrics(b, a counters) map[string]float64 {
	events := a.engine.Events - b.engine.Events
	busy := a.engine.Wall - b.engine.Wall
	m := map[string]float64{
		"engine.events":    float64(events),
		"engine.switches":  float64(a.engine.Switches - b.engine.Switches),
		"engine.callbacks": float64(a.engine.Callbacks - b.engine.Callbacks),
		"engine.tasks":     float64(a.engine.Tasks - b.engine.Tasks),
		// A high-water mark, not a sum; the child is a fresh process.
		"engine.peak_parked": float64(a.engine.PeakParked),
		"engine.busy_s":      busy.Seconds(),
		"sweep.cache_hits":   float64(a.cache.Hits - b.cache.Hits),
		"sweep.cache_misses": float64(a.cache.Misses - b.cache.Misses),
		"sched.jobs":         float64(a.sched.Submitted - b.sched.Submitted),
		"sched.started":      float64(a.sched.Started - b.sched.Started),
		"sched.backfilled":   float64(a.sched.Backfilled - b.sched.Backfilled),
		"sched.requeues":     float64(a.sched.Requeues - b.sched.Requeues),
		"ioev.container_mb":  float64(a.io.ContainerBytes-b.io.ContainerBytes) / mib,
		"ioev.cache_flushes": float64(a.io.CacheFlushes - b.io.CacheFlushes),
		"ioev.buddy_copies":  float64(a.io.BuddyCopies - b.io.BuddyCopies),
		"go.alloc_mb":        float64(a.mem.TotalAlloc-b.mem.TotalAlloc) / mib,
		"go.gc_cycles":       float64(a.mem.NumGC - b.mem.NumGC),
		"go.gc_pause_s":      float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e9,
	}
	if events > 0 {
		m["engine.ns_per_event"] = float64(busy.Nanoseconds()) / float64(events)
	}
	return m
}

// span is one timed interval around a call the benchmark makes: an
// experiment's run, canonicalisation or golden diff, or a scenario inside a
// run. Times are nanoseconds since the sample's recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = the sample itself
	Trace  int    `json:"trace"`  // the sample
	Kind   string `json:"kind"`   // run, canonical, diff or scenario
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a traced sample's spans in memory. A nil recorder records
// nothing, so untraced samples run the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	trace int
	spans []span
	run   int                 // the open run span, parent of scenarios
	open  map[scenarioKey]int // open scenario spans
}

type scenarioKey struct {
	index int
	name  string
}

func newRecorder(trace int) *recorder {
	return &recorder{t0: time.Now(), trace: trace, open: map[scenarioKey]int{}}
}

// add opens a span; the caller holds mu.
func (r *recorder) add(kind, name string, parent int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: r.trace,
		Kind: kind, Name: name, Start: time.Since(r.t0).Nanoseconds()})
	return len(r.spans)
}

// close ends a span; the caller holds mu.
func (r *recorder) close(id int) { r.spans[id-1].End = time.Since(r.t0).Nanoseconds() }

// begin opens an experiment-level span and returns the function that
// closes it.
func (r *recorder) begin(kind, name string) func() {
	if r == nil {
		return func() {}
	}
	r.mu.Lock()
	id := r.add(kind, name, 0)
	if kind == "run" {
		r.run = id
	}
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		r.close(id)
		r.run = 0
		r.mu.Unlock()
	}
}

// observe turns the sweep's scenario start and done events into spans
// under the running experiment. Sweep workers call it concurrently.
func (r *recorder) observe(ev sweep.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := scenarioKey{ev.Index, ev.Name}
	switch ev.Kind {
	case sweep.ScenarioStart:
		r.open[key] = r.add("scenario", ev.Name, r.run)
	case sweep.ScenarioDone:
		if id, ok := r.open[key]; ok {
			r.close(id)
			delete(r.open, key)
		}
	}
}

// metrics derives the span metrics of the sample:
//   - sweep.scenario_s sums the scenario spans;
//   - sweep.idle_s is, per experiment, GOMAXPROCS times the stretch from its
//     first scenario start to its last scenario end, less its scenario time:
//     the worker pool's tail imbalance;
//   - exp.self_s is each run span less the union of its scenario spans.
func (r *recorder) metrics() map[string]float64 {
	workers := int64(runtime.GOMAXPROCS(0))
	kids := map[int][]span{}
	for _, s := range r.spans {
		if s.Kind == "scenario" {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var scenarios int
	total := map[string]int64{}
	var idle, self int64
	for _, s := range r.spans {
		d := s.End - s.Start
		total[s.Kind] += d
		switch s.Kind {
		case "scenario":
			scenarios++
		case "run":
			covered, first, last, busy := cover(kids[s.ID])
			self += d - covered
			idle += workers*(last-first) - busy
		}
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	return map[string]float64{
		"sweep.scenarios":  float64(scenarios),
		"sweep.scenario_s": sec(total["scenario"]),
		"sweep.idle_s":     sec(idle),
		"exp.self_s":       sec(self),
		"exp.canonical_s":  sec(total["canonical"]),
		"exp.diff_s":       sec(total["diff"]),
	}
}

// cover returns how much of the timeline the spans cover, their first
// start and last end, and their summed durations.
func cover(spans []span) (covered, first, last, busy int64) {
	if len(spans) == 0 {
		return 0, 0, 0, 0
	}
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	first = s[0].Start
	curS, curE := s[0].Start, s[0].End
	for _, x := range s {
		busy += x.End - x.Start
		last = max(last, x.End)
		if x.Start > curE {
			covered += curE - curS
			curS, curE = x.Start, x.End
		}
		curE = max(curE, x.End)
	}
	covered += curE - curS
	return covered, first, last, busy
}
