package sweep

import (
	"bytes"
	"encoding/json"
	"testing"
	"testing/quick"

	"clusterbooster/internal/xpic"
)

// determinismGrid is a small but representative slice of the evaluation
// space: both mono modes and the spawn-based split mode, at one and two
// ranks per solver (halo + migration traffic included).
func determinismGrid() Grid {
	cfg := xpic.QuickConfig(3)
	return Grid{
		Name:       "det",
		NodeCounts: []int{1, 2},
		Modes:      []xpic.Mode{xpic.ClusterOnly, xpic.BoosterOnly, xpic.SplitCB},
		Workloads:  []WorkloadVariant{{Config: cfg}},
	}
}

func sweepJSON(t *testing.T, workers int) []byte {
	t.Helper()
	scenarios, err := determinismGrid().Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	rs := Run(scenarios, Options{Workers: workers})
	if err := rs.FirstError(); err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkerCountInvariance is the determinism property of the execution
// kernel: the sweep's JSON must be bit-identical for any host worker count,
// because every scenario's event order is decided by virtual time inside its
// own kernel, never by host scheduling.
func TestWorkerCountInvariance(t *testing.T) {
	reference := sweepJSON(t, 1)
	if testing.Short() {
		if got := sweepJSON(t, 4); !bytes.Equal(got, reference) {
			t.Fatal("sweep JSON differs between 1 and 4 workers")
		}
		return
	}
	f := func(w uint8) bool {
		workers := int(w)%16 + 1
		return bytes.Equal(sweepJSON(t, workers), reference)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatalf("worker-count invariance violated: %v", err)
	}
}
