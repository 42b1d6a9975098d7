package exp

import (
	"bytes"
	"strings"
	"testing"
)

// paperOrder is the catalog contract: the five paper artifacts in reading
// order, the past-prototype scaling continuation, the resilience family
// (§III-D live on the kernel), the I/O strategy family (§III-C live on the
// kernel), the facility family (§II-A's batch system live on the kernel)
// with its failing-machine extension, §II-A's modular-vs-accelerated
// comparison, then the standing sweeps. cbctl list follows it.
var paperOrder = []string{
	"table1", "table2", "fig3", "fig7", "fig8", "fig8-scale", "fig8-scale4096",
	"fig8-scale16384", "fig-resilience", "fig-io", "fig-facility", "facility-10k",
	"fig-facility-resilience", "fig-modular",
	"sweep/fig3", "sweep/fig7", "sweep/fig8", "sweep/paper", "sweep/xpic-weak",
}

func TestCatalogComplete(t *testing.T) {
	names := Names()
	if len(names) != len(paperOrder) {
		t.Fatalf("registry has %d experiments %v, want %d %v", len(names), names, len(paperOrder), paperOrder)
	}
	for i, want := range paperOrder {
		if names[i] != want {
			t.Errorf("registry order[%d] = %q, want %q", i, names[i], want)
		}
	}
	for _, e := range All() {
		if e.Version < 1 {
			t.Errorf("%s: version %d", e.Name, e.Version)
		}
		if e.Run == nil {
			t.Errorf("%s: no run function", e.Name)
		}
		if e.Render == nil {
			t.Errorf("%s: no renderer", e.Name)
		}
		if e.Title == "" || e.Grid == "" || e.Profile == "" {
			t.Errorf("%s: incomplete description (title=%q grid=%q profile=%q)", e.Name, e.Title, e.Grid, e.Profile)
		}
	}
}

func TestGetAndResolve(t *testing.T) {
	if _, ok := Get("fig7"); !ok {
		t.Fatal("fig7 not registered")
	}
	if _, ok := Get("fig9"); ok {
		t.Fatal("fig9 should not resolve")
	}
	exps, err := Resolve([]string{"table1", "sweep/paper"})
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 2 || exps[0].Name != "table1" || exps[1].Name != "sweep/paper" {
		t.Fatalf("resolve returned %v", exps)
	}
	if _, err := Resolve([]string{"nope"}); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("resolve(nope) err = %v", err)
	}
}

func TestRegisterRejectsBadDefinitions(t *testing.T) {
	cases := map[string]Experiment{
		"bad name":    {Name: "Fig 7!", Version: 1, Run: func(Options) (Document, error) { return Document{}, nil }},
		"no version":  {Name: "valid-name", Run: func(Options) (Document, error) { return Document{}, nil }},
		"no run":      {Name: "valid-name", Version: 1},
		"duplicate":   {Name: "fig7", Version: 1, Run: func(Options) (Document, error) { return Document{}, nil }},
		"empty name":  {Version: 1, Run: func(Options) (Document, error) { return Document{}, nil }},
		"slash start": {Name: "/fig7", Version: 1, Run: func(Options) (Document, error) { return Document{}, nil }},
	}
	for name, e := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%+v) did not panic", e)
				}
			}()
			Register(e)
		})
	}
}

func TestCheckBudgets(t *testing.T) {
	e := Experiment{
		Budgets: []Budget{
			{Measure: "makespan_s", Kind: MaxBudget, Bound: 2.0},
			{Measure: "efficiency", Kind: MinBudget, Bound: 0.7},
			{Measure: "absent", Kind: MaxBudget, Bound: 1.0},
		},
	}
	doc := Document{Measures: map[string]float64{
		"makespan_s": 2.5, // over max
		"efficiency": 0.8, // fine
	}}
	viols := e.CheckBudgets(doc)
	if len(viols) != 2 {
		t.Fatalf("got %d violations %v, want 2", len(viols), viols)
	}
	if viols[0].Budget.Measure != "makespan_s" || viols[0].Missing {
		t.Errorf("first violation = %+v", viols[0])
	}
	if viols[1].Budget.Measure != "absent" || !viols[1].Missing {
		t.Errorf("second violation = %+v", viols[1])
	}

	doc.Measures["makespan_s"] = 2.0 // exactly at the bound passes
	doc.Measures["absent"] = 0.5
	if viols := e.CheckBudgets(doc); len(viols) != 0 {
		t.Fatalf("at-bound measures should pass, got %v", viols)
	}
}

func TestCanonicalDeterministic(t *testing.T) {
	e, _ := Get("table1")
	var prev []byte
	for i := 0; i < 3; i++ {
		doc, err := e.Run(Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := doc.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !bytes.Equal(prev, b) {
			t.Fatalf("run %d produced different canonical bytes", i)
		}
		prev = b
	}
	if !bytes.HasSuffix(prev, []byte("\n")) {
		t.Error("canonical form must end in a newline")
	}
	doc, err := ParseDocument(prev)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Experiment != "table1" || doc.Version != 1 {
		t.Errorf("round-trip = %s v%d", doc.Experiment, doc.Version)
	}
}

// The sweep engine is host-parallel; a registry run must emit identical
// documents regardless of the worker count.
func TestDocumentIndependentOfWorkers(t *testing.T) {
	e, _ := Get("fig3")
	var prev []byte
	for _, workers := range []int{1, 4} {
		doc, err := e.Run(Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		b, err := doc.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !bytes.Equal(prev, b) {
			t.Fatalf("workers=%d changed the canonical document", workers)
		}
		prev = b
	}
}

func TestRenderFromDocument(t *testing.T) {
	e, _ := Get("table2")
	doc, err := e.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	text, err := e.Render(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table II", "4096 (grid 64x64)", "Time steps"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered table2 missing %q:\n%s", want, text)
		}
	}
}
