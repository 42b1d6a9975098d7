package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// heavyExperiments are skipped under -short: each replays a multi-node or
// checkpointed grid (seconds of host time). The CI golden job (`cbctl diff
// -all`) and the full `go test ./...` run cover them.
var heavyExperiments = map[string]bool{
	"fig8":            true,
	"fig8-scale":      true,
	"fig8-scale4096":  true,
	"fig8-scale16384": true,
	"sweep/fig8":      true,
	"sweep/paper":     true,
	"sweep/xpic-weak": true,
}

// TestGoldensMatch replays every registered experiment and requires the
// canonical document to be byte-identical to the checked-in golden — the
// in-tree twin of the `cbctl diff -all` CI gate, so plain `go test ./...`
// also catches paper-artifact drift.
func TestGoldensMatch(t *testing.T) {
	root := FindModuleRoot(".")
	if root == "" {
		t.Fatal("module root not found from test working directory")
	}
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			if testing.Short() && heavyExperiments[e.Name] {
				t.Skip("heavy experiment: covered by the golden CI job and full test runs")
			}
			golden, source, err := Golden(e.Name, root)
			if err != nil {
				t.Fatalf("no golden: %v (bless with: go run ./cmd/cbctl bless %s)", err, e.Name)
			}
			doc, err := e.Run(Options{})
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := doc.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Diff(e, golden, fresh, false)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() || rep.Status != Identical {
				t.Errorf("drift against %s:\n%s", source, rep.Summary(10))
				t.Log("if intentional, re-record with: go run ./cmd/cbctl bless -all")
			}
		})
	}
}

// Every golden must also ship embedded in the binary, or `cbctl diff` breaks
// away from the source tree.
func TestGoldensEmbedded(t *testing.T) {
	for _, e := range All() {
		b, source, err := Golden(e.Name, "")
		if err != nil {
			t.Errorf("%s: not embedded: %v", e.Name, err)
			continue
		}
		if source != "embedded" {
			t.Errorf("%s: source = %q", e.Name, source)
		}
		doc, err := ParseDocument(b)
		if err != nil {
			t.Errorf("%s: embedded golden unparseable: %v", e.Name, err)
			continue
		}
		if doc.Experiment != e.Name {
			t.Errorf("%s: embedded golden is for %q", e.Name, doc.Experiment)
		}
		if doc.Version != e.Version {
			t.Errorf("%s: embedded golden v%d, experiment v%d — re-bless", e.Name, doc.Version, e.Version)
		}
	}
}

func TestGoldenTreePrecedence(t *testing.T) {
	root := t.TempDir()
	want := []byte("{\"experiment\": \"table1\"}\n")
	p, err := WriteGolden(root, "table1", want)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(p) != filepath.Join(root, "internal", "exp", "testdata") {
		t.Errorf("written to %s", p)
	}
	got, source, err := Golden("table1", root)
	if err != nil {
		t.Fatal(err)
	}
	if source != p || !bytes.Equal(got, want) {
		t.Errorf("tree golden not preferred: source=%q", source)
	}

	// Nested names create their directories.
	if _, err := WriteGolden(root, "sweep/fig7", want); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "internal", "exp", "testdata", "sweep", "fig7.golden.json")); err != nil {
		t.Error(err)
	}
}

func TestFindModuleRoot(t *testing.T) {
	root := FindModuleRoot(".")
	if root == "" {
		t.Fatal("expected to find module root from package directory")
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatal(err)
	}
	if FindModuleRoot(t.TempDir()) != "" {
		t.Error("unrelated directory should not resolve to a module root")
	}
}
