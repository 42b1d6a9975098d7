package exp

import (
	"bytes"
	"encoding/json"
	"testing"
	"testing/quick"

	"clusterbooster/internal/resilience"
	"clusterbooster/internal/scr"
	"clusterbooster/internal/sweep"
	"clusterbooster/internal/vclock"
	"clusterbooster/internal/xpic"
)

// resilienceScenarios is a failure-heavy slice of the resilience axis: both
// mono modes and the split mode, cold and warm restarts, local and buddy
// levels — every scenario runs its own seeded injector.
func resilienceScenarios() []sweep.Scenario {
	wl := xpic.QuickConfig(12)
	var scen []sweep.Scenario
	for _, p := range []struct {
		name string
		prm  resilience.Params
	}{
		{"res/cluster/warm", resilience.Params{Mode: xpic.ClusterOnly, Nodes: 2, Workload: wl,
			CheckpointEvery: 3, SCR: scr.Config{BuddyEvery: 1}, RestartOverhead: 50 * vclock.Millisecond,
			MTBF: 60 * vclock.Millisecond, Seed: 11, MaxFailures: 1}},
		{"res/cluster/cold", resilience.Params{Mode: xpic.ClusterOnly, Nodes: 2, Workload: wl,
			CheckpointEvery: 3, SCR: scr.Config{BuddyEvery: 1}, RestartOverhead: 50 * vclock.Millisecond,
			MTBF: 60 * vclock.Millisecond, Seed: 9, MaxFailures: 1}},
		{"res/booster/global", resilience.Params{Mode: xpic.BoosterOnly, Nodes: 2, Workload: wl,
			CheckpointEvery: 3, SCR: scr.Config{GlobalEvery: 1}, RestartOverhead: 50 * vclock.Millisecond,
			MTBF: 30 * vclock.Millisecond, Seed: 4, MaxFailures: 1}},
		{"res/split/warm", resilience.Params{Mode: xpic.SplitCB, Nodes: 2, Workload: wl,
			CheckpointEvery: 3, SCR: scr.Config{BuddyEvery: 1}, RestartOverhead: 50 * vclock.Millisecond,
			MTBF: 110 * vclock.Millisecond, Seed: 5, MaxFailures: 1}},
	} {
		scen = append(scen, resilienceScenario(p.name, p.prm))
	}
	return scen
}

func resilienceSweepJSON(t *testing.T, workers int) []byte {
	t.Helper()
	rs := sweep.Run(resilienceScenarios(), sweep.Options{Workers: workers})
	if err := rs.FirstError(); err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResilienceWorkerCountInvariance extends the kernel's determinism
// property to failure injection: the same seeds must produce byte-identical
// resilience sweep JSON under any host worker count, because failures are
// kernel events drawn from per-scenario RNGs in virtual time — host
// scheduling never touches the failure sequence, the teardown order, or the
// replay.
func TestResilienceWorkerCountInvariance(t *testing.T) {
	reference := resilienceSweepJSON(t, 1)
	// The failure sweep must actually contain failures, or the property is
	// vacuous.
	if !bytes.Contains(reference, []byte(`"failures": 1`)) {
		t.Fatalf("no failures in the reference sweep:\n%s", reference)
	}
	if testing.Short() {
		if got := resilienceSweepJSON(t, 4); !bytes.Equal(got, reference) {
			t.Fatal("resilience sweep JSON differs between 1 and 4 workers")
		}
		return
	}
	f := func(w uint8) bool {
		workers := int(w)%16 + 1
		return bytes.Equal(resilienceSweepJSON(t, workers), reference)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatalf("resilience worker-count invariance violated: %v", err)
	}
}
