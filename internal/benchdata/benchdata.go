// Package benchdata turns `go test -bench` output into machine-readable
// benchmark baselines and compares fresh runs against them — the repo's
// perf-trajectory record. `cbctl bench` is the CLI: it parses a benchmark
// run, emits the canonical JSON form (checked in as BENCH_kernel.json), and
// in -check mode fails on benchstat-style regressions beyond a tolerance,
// which the CI bench-regression job gates on.
package benchdata

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's measured costs per operation.
type Benchmark struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Baseline is a set of benchmark results, the unit the JSON file stores.
type Baseline struct {
	// Schema versions the file format.
	Schema int `json:"schema"`
	// Note records provenance (host, date, benchtime) free-form.
	Note string `json:"note,omitempty"`
	// Benchmarks is sorted by name; Parse takes the minimum ns/op across
	// repeated runs of one benchmark (-count > 1), benchstat's robust choice
	// against scheduling noise.
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Schema is the current baseline file schema.
const Schema = 1

// Parse reads `go test -bench -benchmem` output and collects the benchmark
// lines. Repeated runs of one benchmark keep the minimum ns/op (and that
// run's companion metrics). Lines that are not benchmark results are
// ignored, so the whole test output can be piped in unfiltered.
func Parse(r io.Reader) (Baseline, error) {
	byName := map[string]Benchmark{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		b, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		if prev, seen := byName[b.Name]; !seen || b.NsPerOp < prev.NsPerOp {
			byName[b.Name] = b
		}
	}
	if err := sc.Err(); err != nil {
		return Baseline{}, fmt.Errorf("benchdata: read: %w", err)
	}
	if len(byName) == 0 {
		return Baseline{}, fmt.Errorf("benchdata: no benchmark lines found (want `go test -bench -benchmem` output)")
	}
	out := Baseline{Schema: Schema}
	for _, b := range byName {
		out.Benchmarks = append(out.Benchmarks, b)
	}
	sort.Slice(out.Benchmarks, func(i, j int) bool { return out.Benchmarks[i].Name < out.Benchmarks[j].Name })
	return out, nil
}

// parseLine decodes one `BenchmarkName-P  N  x ns/op  [y B/op  z allocs/op]`
// result line.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	// Strip the -GOMAXPROCS suffix; the baseline is procs-agnostic.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	b := Benchmark{Name: name}
	got := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
			got = true
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		}
	}
	return b, got
}

// Canonical renders the baseline in its checked-in byte form: indented JSON
// with a trailing newline.
func (b Baseline) Canonical() ([]byte, error) {
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("benchdata: canonicalise: %w", err)
	}
	return append(out, '\n'), nil
}

// ParseBaseline decodes a checked-in baseline file.
func ParseBaseline(data []byte) (Baseline, error) {
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return Baseline{}, fmt.Errorf("benchdata: parse baseline: %w", err)
	}
	if b.Schema != Schema {
		return Baseline{}, fmt.Errorf("benchdata: baseline schema %d, want %d", b.Schema, Schema)
	}
	return b, nil
}

// Regression is one benchmark that got worse than the baseline allows.
type Regression struct {
	Name   string
	Metric string // "ns/op", "allocs/op", or "missing"
	Old    float64
	New    float64
}

// String renders the regression for reports.
func (r Regression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s: missing from this run (baseline has it)", r.Name)
	}
	if r.Old == 0 {
		// A zero baseline (0-alloc benchmarks) has no meaningful percentage.
		return fmt.Sprintf("%s: %s %.6g -> %.6g", r.Name, r.Metric, r.Old, r.New)
	}
	return fmt.Sprintf("%s: %s %.6g -> %.6g (%+.1f%%)",
		r.Name, r.Metric, r.Old, r.New, 100*(r.New-r.Old)/r.Old)
}

// Compare checks a fresh run against the baseline: every baseline benchmark
// must be present, its ns/op may grow by at most maxNs (fractional, e.g.
// 0.25 for 25%), and its allocs/op by at most maxAllocs with half an
// allocation of absolute slack (so 0-alloc baselines stay 0-alloc). The
// tolerances are separate because the metrics are not equally portable:
// allocs/op is machine-independent and can be gated tightly anywhere, while
// ns/op recorded on one machine only supports a coarse gate on another.
// Benchmarks the baseline does not know are ignored — add them with
// `cbctl bench -update`.
func Compare(baseline, fresh Baseline, maxNs, maxAllocs float64) []Regression {
	freshBy := map[string]Benchmark{}
	for _, b := range fresh.Benchmarks {
		freshBy[b.Name] = b
	}
	var out []Regression
	for _, old := range baseline.Benchmarks {
		now, ok := freshBy[old.Name]
		if !ok {
			out = append(out, Regression{Name: old.Name, Metric: "missing"})
			continue
		}
		if old.NsPerOp > 0 && now.NsPerOp > old.NsPerOp*(1+maxNs) {
			out = append(out, Regression{Name: old.Name, Metric: "ns/op", Old: old.NsPerOp, New: now.NsPerOp})
		}
		if now.AllocsPerOp > old.AllocsPerOp*(1+maxAllocs)+0.5 {
			out = append(out, Regression{Name: old.Name, Metric: "allocs/op", Old: old.AllocsPerOp, New: now.AllocsPerOp})
		}
	}
	return out
}
