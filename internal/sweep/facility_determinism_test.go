package sweep

import (
	"bytes"
	"encoding/json"
	"testing"
	"testing/quick"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/resilience"
	"clusterbooster/internal/sched"
	"clusterbooster/internal/vclock"
)

// facilityScenarios is a policy-diverse slice of the facility axis: one
// overloaded 200-job stream per policy, all from the same seed so the three
// kernels schedule the identical arrival sequence.
func facilityScenarios() []Scenario {
	var scen []Scenario
	for _, pol := range sched.FacilityPolicies() {
		p := sched.FacilityParams{Policy: pol, Jobs: 200, Load: 1.4, Seed: 42}
		scen = append(scen, FacilityPoint{FacilityParams: p}.Scenario("fac/"+string(pol)))
	}
	return scen
}

func facilitySweepJSON(t *testing.T, workers int) []byte {
	t.Helper()
	rs := Run(facilityScenarios(), Options{Workers: workers})
	if err := rs.FirstError(); err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// faultyFacilityScenarios is the failing-machine slice of the facility
// axis: the same overload stream per policy, now under harsh per-module
// failure/repair processes — one cold-restart leg and one checkpointed leg
// each, so kills, requeues, rewinds, retries and repairs all happen in
// every sweep.
func faultyFacilityScenarios() []Scenario {
	var scen []Scenario
	for _, pol := range sched.FacilityPolicies() {
		for _, ckpt := range []bool{false, true} {
			faults := &sched.FacilityFaults{
				Cluster:    machine.FailureProfile{MTBF: 20, MTTR: 1.5},
				Booster:    machine.FailureProfile{MTBF: 12, MTTR: 1.5},
				Seed:       7,
				MaxRetries: 16,
			}
			name := "faulty/" + string(pol) + "/cold"
			if ckpt {
				faults.Rewind = resilience.FacilityCheckpoint{
					Every: 250 * vclock.Millisecond, Cost: 10 * vclock.Millisecond,
					Restore: 20 * vclock.Millisecond,
				}
				name = "faulty/" + string(pol) + "/ckpt"
			}
			p := sched.FacilityParams{Policy: pol, Jobs: 200, Load: 1.4, Seed: 42, Faults: faults}
			scen = append(scen, FacilityResiliencePoint{FacilityParams: p}.Scenario(name))
		}
	}
	return scen
}

func faultySweepJSON(t *testing.T, workers int) []byte {
	t.Helper()
	rs := Run(faultyFacilityScenarios(), Options{Workers: workers})
	if err := rs.FirstError(); err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFacilityFaultsWorkerCountInvariance extends the facility worker-
// invariance property to failing streams: seeded failure/repair processes,
// kills, rewinds and requeues are all events of the stream's private serial
// kernel, so the sweep JSON must stay byte-identical under any host worker
// count.
func TestFacilityFaultsWorkerCountInvariance(t *testing.T) {
	// The streams must actually suffer: a fault-free replay would make the
	// property vacuous.
	rs := Run(faultyFacilityScenarios(), Options{Workers: 1})
	if err := rs.FirstError(); err != nil {
		t.Fatal(err)
	}
	requeues, failures := 0.0, 0.0
	for _, r := range rs.Results {
		requeues += r.Metrics["requeues"]
		failures += r.Metrics["failures"]
	}
	if failures == 0 || requeues == 0 {
		t.Fatalf("faulty streams ran without failures (%v) or requeues (%v)", failures, requeues)
	}
	reference := faultySweepJSON(t, 1)
	if got := faultySweepJSON(t, 4); !bytes.Equal(got, reference) {
		t.Fatal("faulty facility sweep JSON differs between workers=1 and workers=4")
	}
	if testing.Short() {
		return
	}
	f := func(w uint8) bool {
		return bytes.Equal(faultySweepJSON(t, int(w)%8+1), reference)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatalf("faulty facility worker-count invariance violated: %v", err)
	}
}

// TestFacilityWorkerCountInvariance extends the kernel's determinism
// property to the facility layer: the same seeds must produce byte-identical
// facility sweep JSON under any host worker count, because each stream is a
// private machine + kernel whose arrival, grant and completion callbacks run
// one at a time in virtual-time order — host scheduling never touches
// arrival order, grant order, or the backfill scan.
func TestFacilityWorkerCountInvariance(t *testing.T) {
	// The overloaded streams must actually exercise the scheduler, or the
	// property is vacuous.
	rs := Run(facilityScenarios(), Options{Workers: 1})
	if err := rs.FirstError(); err != nil {
		t.Fatal(err)
	}
	backfilled, shrunk := 0.0, 0.0
	for _, r := range rs.Results {
		backfilled += r.Metrics["backfilled"]
		shrunk += r.Metrics["shrunk"]
	}
	if backfilled == 0 || shrunk == 0 {
		t.Fatalf("streams scheduled without backfills (%v) or shrinks (%v)", backfilled, shrunk)
	}
	reference := facilitySweepJSON(t, 1)
	if testing.Short() {
		if got := facilitySweepJSON(t, 4); !bytes.Equal(got, reference) {
			t.Fatal("facility sweep JSON differs between 1 and 4 workers")
		}
		return
	}
	f := func(w uint8) bool {
		workers := int(w)%16 + 1
		return bytes.Equal(facilitySweepJSON(t, workers), reference)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatalf("facility worker-count invariance violated: %v", err)
	}
}
