// Golden diffing. The default comparison is byte-for-byte: experiments are
// deterministic in virtual time, so a fresh canonical document must equal
// the recorded golden exactly. Tolerance mode relaxes numeric leaves by the
// experiment's declared per-metric relative tolerances (for measures that
// are wall-clock-like or expected to wobble across model refinements), while
// everything structural — names, versions, shapes, strings — stays exact.
package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// DiffStatus classifies a golden comparison.
type DiffStatus int

const (
	// Identical: the canonical bytes match exactly.
	Identical DiffStatus = iota
	// WithinTolerance: bytes differ, but every difference is a numeric
	// leaf within the experiment's declared tolerance (tolerance mode only).
	WithinTolerance
	// Drifted: at least one difference survives the comparison.
	Drifted
)

// String names the status for reports.
func (s DiffStatus) String() string {
	switch s {
	case Identical:
		return "identical"
	case WithinTolerance:
		return "within tolerance"
	default:
		return "drifted"
	}
}

// Drift is one surviving difference between golden and fresh documents.
type Drift struct {
	// Path locates the difference ("payload.results[3].metrics.makespan_s").
	Path string
	// Golden and Fresh are the rendered values on each side ("<absent>"
	// when a key exists on only one side).
	Golden, Fresh string
	// RelDelta is the relative difference for numeric drifts (0 otherwise).
	RelDelta float64
}

// String renders the drift for reports.
func (d Drift) String() string {
	if d.RelDelta > 0 {
		return fmt.Sprintf("%s: golden %s, fresh %s (rel. delta %.3g)", d.Path, d.Golden, d.Fresh, d.RelDelta)
	}
	return fmt.Sprintf("%s: golden %s, fresh %s", d.Path, d.Golden, d.Fresh)
}

// DiffReport is the outcome of comparing one fresh run against its golden.
type DiffReport struct {
	Status DiffStatus
	// Drifts are the differences that fail the comparison.
	Drifts []Drift
	// Tolerated are numeric differences absorbed by tolerance mode.
	Tolerated []Drift
	// Violations are the experiment's budget-check failures on the fresh
	// document; they fail the diff independently of golden drift.
	Violations []Violation
}

// Clean reports whether the comparison passed: no surviving drift and no
// budget violation.
func (r DiffReport) Clean() bool {
	return r.Status != Drifted && len(r.Violations) == 0
}

// Diff compares a fresh canonical document against the golden bytes.
// tolerant enables the experiment's per-metric relative tolerances; the
// default is byte-for-byte.
func Diff(e Experiment, golden, fresh []byte, tolerant bool) (DiffReport, error) {
	var rep DiffReport

	doc, err := ParseDocument(fresh)
	if err != nil {
		return rep, fmt.Errorf("exp: %s: fresh document: %w", e.Name, err)
	}
	rep.Violations = e.CheckBudgets(doc)

	if bytes.Equal(golden, fresh) {
		rep.Status = Identical
		return rep, nil
	}

	var g, f any
	if err := decodeNumbers(golden, &g); err != nil {
		return rep, fmt.Errorf("exp: %s: golden document: %w", e.Name, err)
	}
	if err := decodeNumbers(fresh, &f); err != nil {
		return rep, fmt.Errorf("exp: %s: fresh document: %w", e.Name, err)
	}

	d := differ{exp: e, tolerant: tolerant}
	d.walk("", nil, g, f)
	rep.Drifts, rep.Tolerated = d.drifts, d.tolerated
	switch {
	case len(rep.Drifts) > 0:
		rep.Status = Drifted
	case len(rep.Tolerated) > 0:
		rep.Status = WithinTolerance
	default:
		// Bytes differed but the decoded trees match (e.g. formatting-only
		// difference, hand-edited golden). Treat as drift: goldens are
		// canonical bytes, and a re-bless repairs the formatting.
		rep.Status = Drifted
		rep.Drifts = append(rep.Drifts, Drift{
			Path:   "(document)",
			Golden: "canonical bytes", Fresh: "equivalent JSON, non-canonical bytes",
		})
	}
	return rep, nil
}

// decodeNumbers unmarshals preserving the numeric literals.
func decodeNumbers(b []byte, into *any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	return dec.Decode(into)
}

type differ struct {
	exp       Experiment
	tolerant  bool
	drifts    []Drift
	tolerated []Drift
}

// walk compares two decoded JSON values. path is the location; chain is the
// stack of enclosing object keys, leaf-last (the names tolerances are
// declared against — the metric key may be an ancestor of the numeric leaf,
// as in Fig. 3's per-pair maps under "latency_us").
func (d *differ) walk(path string, chain []string, golden, fresh any) {
	switch g := golden.(type) {
	case map[string]any:
		f, ok := fresh.(map[string]any)
		if !ok {
			d.record(path, render(golden), render(fresh), 0)
			return
		}
		for _, k := range unionKeys(g, f) {
			gv, gok := g[k]
			fv, fok := f[k]
			sub := joinPath(path, k)
			switch {
			case !gok:
				d.record(sub, "<absent>", render(fv), 0)
			case !fok:
				d.record(sub, render(gv), "<absent>", 0)
			default:
				d.walk(sub, append(chain, k), gv, fv)
			}
		}
	case []any:
		f, ok := fresh.([]any)
		if !ok {
			d.record(path, render(golden), render(fresh), 0)
			return
		}
		if len(g) != len(f) {
			d.record(path, fmt.Sprintf("%d elements", len(g)), fmt.Sprintf("%d elements", len(f)), 0)
		}
		for i := 0; i < len(g) && i < len(f); i++ {
			d.walk(fmt.Sprintf("%s[%d]", path, i), chain, g[i], f[i])
		}
	case json.Number:
		f, ok := fresh.(json.Number)
		if !ok {
			d.record(path, g.String(), render(fresh), 0)
			return
		}
		if g.String() == f.String() {
			return
		}
		gv, gerr := g.Float64()
		fv, ferr := f.Float64()
		if gerr != nil || ferr != nil {
			d.record(path, g.String(), f.String(), 0)
			return
		}
		rel := relDelta(gv, fv)
		if d.tolerant {
			if tol, ok := d.tolerance(chain); ok && rel <= tol {
				d.tolerated = append(d.tolerated, Drift{Path: path, Golden: g.String(), Fresh: f.String(), RelDelta: rel})
				return
			}
		}
		d.record(path, g.String(), f.String(), rel)
	default:
		if golden != fresh {
			d.record(path, render(golden), render(fresh), 0)
		}
	}
}

func (d *differ) record(path, golden, fresh string, rel float64) {
	d.drifts = append(d.drifts, Drift{Path: path, Golden: golden, Fresh: fresh, RelDelta: rel})
}

// tolerance resolves the relative tolerance for a numeric leaf: the nearest
// enclosing key with an explicit entry wins (leaf first, then ancestors),
// then the "*" wildcard.
func (d *differ) tolerance(chain []string) (float64, bool) {
	for i := len(chain) - 1; i >= 0; i-- {
		if tol, ok := d.exp.Tolerance[chain[i]]; ok {
			return tol, true
		}
	}
	tol, ok := d.exp.Tolerance["*"]
	return tol, ok
}

// relDelta is the relative difference |a-b| / max(|a|, |b|); 0 for two
// zeros.
func relDelta(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

func unionKeys(a, b map[string]any) []string {
	seen := make(map[string]bool, len(a)+len(b))
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func joinPath(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

// render shows a decoded JSON value compactly for drift messages.
func render(v any) string {
	switch t := v.(type) {
	case nil:
		return "null"
	case json.Number:
		return t.String()
	case string:
		return strconv.Quote(t)
	case bool:
		return strconv.FormatBool(t)
	case map[string]any:
		return fmt.Sprintf("object (%d keys)", len(t))
	case []any:
		return fmt.Sprintf("array (%d elements)", len(t))
	default:
		s := fmt.Sprint(v)
		if len(s) > 64 {
			s = s[:61] + "..."
		}
		return s
	}
}

// Summary renders the report as a short multi-line text block for CLI use.
func (r DiffReport) Summary(maxDrifts int) string {
	var sb strings.Builder
	for i, dr := range r.Drifts {
		if maxDrifts > 0 && i == maxDrifts {
			fmt.Fprintf(&sb, "  ... and %d more drifts\n", len(r.Drifts)-maxDrifts)
			break
		}
		fmt.Fprintf(&sb, "  drift  %s\n", dr)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&sb, "  BUDGET %s\n", v)
	}
	return sb.String()
}
