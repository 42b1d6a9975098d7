// Package exp is the experiment registry: every paper artifact (Table I,
// Table II, Fig. 3, Fig. 7, Fig. 8) and every standing sweep definition is
// registered as a named, versioned experiment with a uniform interface. An
// experiment declares its scenario grid, runs through internal/sweep, and
// emits a canonical JSON document; golden baselines for every experiment are
// checked into internal/exp/testdata/ and embedded into the binary, so a
// fresh run can be diffed byte-for-byte against the recorded one from any
// working directory (cmd/cbctl is the CLI for list/run/diff/bless).
//
// Experiments also declare virtual-time perf budgets: bounds on scalar
// measures (simulated makespans, latencies, efficiencies) that must hold on
// every run. A model change that is blessed into new goldens still fails
// `cbctl diff` if it pushes a simulated runtime past its declared budget.
//
// The registry is the single catalog that cbctl, the CI golden gate, and
// future workloads plug into; see EXPERIMENTS.md for the catalog and
// workflow.
package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"sync"

	"clusterbooster/internal/sweep"
)

// Options tunes an experiment run. Options never change what an experiment
// measures: every experiment runs its pinned workload profile, and the
// options only schedule, observe or cancel the run.
type Options struct {
	// Workers bounds the sweep worker pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Observer, if set, receives per-scenario progress events.
	Observer func(sweep.Event)
	// Context, if non-nil, cancels the run: no further scenario starts once
	// it is done and the experiment reports the cancellation as a run error
	// (canceled scenarios fail, and FirstError surfaces them). Used by
	// `cbctl serve` to abort abandoned requests.
	Context context.Context
}

// Document is the canonical outcome of one experiment run: a stable,
// deterministic JSON form that goldens, diffs and downstream tooling share.
type Document struct {
	// Experiment and Version echo the registered definition that produced
	// the document; a version bump always invalidates the golden.
	Experiment string `json:"experiment"`
	Version    int    `json:"version"`
	// Meta records run provenance that is part of the contract (e.g. the
	// workload profile). Maps marshal with sorted keys, so Meta is
	// deterministic to serialise.
	Meta map[string]string `json:"meta,omitempty"`
	// Measures are the scalar summary values of the run — the quantities
	// perf budgets are declared against.
	Measures map[string]float64 `json:"measures,omitempty"`
	// Payload is the full experiment-specific result (rows, series, or a
	// raw sweep.ResultSet), in its canonical JSON encoding.
	Payload json.RawMessage `json:"payload"`
}

// Canonical returns the document's canonical byte form: indented JSON with a
// trailing newline. Two runs of a deterministic experiment produce identical
// canonical bytes regardless of worker count or host scheduling.
func (d Document) Canonical() ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("exp: canonicalise %s: %w", d.Experiment, err)
	}
	return append(b, '\n'), nil
}

// NDJSON returns the document as one compact JSON line (newline-terminated)
// — the `cbctl serve` stream format, also emitted by `cbctl run -ndjson` so
// the two paths are byte-comparable. Like Canonical, the bytes are
// deterministic for a deterministic experiment.
func (d Document) NDJSON() ([]byte, error) {
	b, err := json.Marshal(d)
	if err != nil {
		return nil, fmt.Errorf("exp: ndjson %s: %w", d.Experiment, err)
	}
	return append(b, '\n'), nil
}

// ParseDocument decodes a canonical document.
func ParseDocument(b []byte) (Document, error) {
	var d Document
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("exp: parse document: %w", err)
	}
	return d, nil
}

// BudgetKind says which side of the bound is acceptable.
type BudgetKind int

const (
	// MaxBudget fails when the measure exceeds the bound (runtime-like
	// measures: simulated makespans, latencies, overhead fractions).
	MaxBudget BudgetKind = iota
	// MinBudget fails when the measure falls below the bound
	// (goodness-like measures: bandwidths, efficiencies, speed-ups).
	MinBudget
)

// String names the kind for reports.
func (k BudgetKind) String() string {
	if k == MinBudget {
		return "min"
	}
	return "max"
}

// Budget bounds one scalar measure of an experiment in virtual time. Budgets
// hold regardless of goldens: bless re-records the baseline, but a budget
// violation still fails cbctl diff until the declared bound itself is
// revised.
type Budget struct {
	Measure string
	Kind    BudgetKind
	Bound   float64
}

// Violation describes one budget check failure.
type Violation struct {
	Budget Budget
	// Value is the measured value, NaN when the measure is missing.
	Value   float64
	Missing bool
}

// String renders the violation for reports.
func (v Violation) String() string {
	if v.Missing {
		return fmt.Sprintf("budget %s: measure missing from document", v.Budget.Measure)
	}
	op := ">"
	if v.Budget.Kind == MinBudget {
		op = "<"
	}
	return fmt.Sprintf("budget %s: %g %s %s %g",
		v.Budget.Measure, v.Value, op, v.Budget.Kind, v.Budget.Bound)
}

// CheckBudgets evaluates the experiment's budgets against a document's
// measures and returns the violations (nil when all budgets hold).
func (e Experiment) CheckBudgets(d Document) []Violation {
	var out []Violation
	for _, b := range e.Budgets {
		v, ok := d.Measures[b.Measure]
		if !ok {
			out = append(out, Violation{Budget: b, Value: math.NaN(), Missing: true})
			continue
		}
		if (b.Kind == MaxBudget && v > b.Bound) || (b.Kind == MinBudget && v < b.Bound) {
			out = append(out, Violation{Budget: b, Value: v})
		}
	}
	return out
}

// Experiment is one registered entry of the catalog.
type Experiment struct {
	// Name is the registry key ("fig7", "sweep/paper", ...). Lowercase
	// letters, digits, '-', '_' and '/' only.
	Name string
	// Title is the one-line human description shown by cbctl list.
	Title string
	// Version tags the experiment definition. Bump it on any intentional
	// change to the grid, workload, or document shape; the version is part
	// of the document, so stale goldens fail the diff loudly.
	Version int
	// Grid describes the scenario grid in human terms.
	Grid string
	// Profile names the pinned workload ("ci-quick", "paper", "n/a").
	Profile string
	// Tolerance maps payload metric keys (the leaf JSON object key, e.g.
	// "latency_us") to a relative tolerance for `cbctl diff -tolerance`.
	// The key "*" applies to every numeric leaf not matched explicitly.
	Tolerance map[string]float64
	// Budgets are the experiment's virtual-time perf bounds.
	Budgets []Budget
	// Run executes the experiment and returns its canonical document.
	Run func(Options) (Document, error)
	// Render renders a document as paper-style text (optional).
	Render func(Document) (string, error)
}

// document stamps a payload into this experiment's Document envelope.
func (e Experiment) document(meta map[string]string, measures map[string]float64, payload any) (Document, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return Document{}, fmt.Errorf("exp: %s: marshal payload: %w", e.Name, err)
	}
	return Document{
		Experiment: e.Name,
		Version:    e.Version,
		Meta:       meta,
		Measures:   measures,
		Payload:    raw,
	}, nil
}

var (
	regMu    sync.RWMutex
	registry = map[string]Experiment{}
	// order preserves registration order: the paper reads Table I, Table II,
	// Fig. 3, Fig. 7, Fig. 8, and cbctl list follows it.
	order []string
)

var nameRe = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]*(/[a-z0-9][a-z0-9_-]*)*$`)

// Register adds an experiment to the catalog. It panics on an invalid
// definition or a duplicate name: registration happens at init time and a
// broken catalog should never boot.
func Register(e Experiment) {
	if !nameRe.MatchString(e.Name) {
		panic(fmt.Sprintf("exp: invalid experiment name %q", e.Name))
	}
	if e.Version < 1 {
		panic(fmt.Sprintf("exp: experiment %q must have version >= 1", e.Name))
	}
	if e.Run == nil {
		panic(fmt.Sprintf("exp: experiment %q has no run function", e.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[e.Name]; dup {
		panic(fmt.Sprintf("exp: duplicate experiment %q", e.Name))
	}
	registry[e.Name] = e
	order = append(order, e.Name)
}

// Get looks an experiment up by name.
func Get(name string) (Experiment, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// All returns every registered experiment in registration (paper) order.
func All() []Experiment {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Experiment, 0, len(order))
	for _, name := range order {
		out = append(out, registry[name])
	}
	return out
}

// Names returns every registered name in registration (paper) order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), order...)
}

// ProgressObserver returns a sweep observer that logs per-scenario progress
// to w, one "cbctl: start|done |FAIL  <scenario>" line per event. Sweep
// workers call it concurrently, so it serialises its writes to w.
func ProgressObserver(w io.Writer) func(sweep.Event) {
	var mu sync.Mutex
	return func(ev sweep.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Kind {
		case sweep.ScenarioStart:
			fmt.Fprintf(w, "cbctl: start %s\n", ev.Name)
		case sweep.ScenarioDone:
			status := "done "
			if ev.Err != nil {
				status = "FAIL "
			}
			fmt.Fprintf(w, "cbctl: %s %s\n", status, ev.Name)
		}
	}
}

// Resolve maps experiment names to their definitions, failing on the first
// unknown name with a did-you-mean listing.
func Resolve(names []string) ([]Experiment, error) {
	out := make([]Experiment, 0, len(names))
	for _, name := range names {
		e, ok := Get(name)
		if !ok {
			known := Names()
			sort.Strings(known)
			return nil, fmt.Errorf("exp: unknown experiment %q (known: %v)", name, known)
		}
		out = append(out, e)
	}
	return out, nil
}
