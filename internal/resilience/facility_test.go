package resilience

import (
	"testing"

	"clusterbooster/internal/vclock"
)

// TestFacilityCheckpointModel pins the closed-form checkpoint/restart
// policy: runtime accounting, the surviving/lost split, and the identity
// surviving-work + checkpoint-cost + lost == elapsed that the facility's
// lost-work metric relies on.
func TestFacilityCheckpointModel(t *testing.T) {
	c := FacilityCheckpoint{Every: 1, Cost: 0.1, Restore: 0.2}

	// Fresh 3s attempt: two interior checkpoints (none at the end).
	if got := c.AttemptRuntime(3, false); !approxTime(got, 3.2) {
		t.Fatalf("AttemptRuntime(3, fresh) = %v, want 3.2", got)
	}
	// Resumed attempts pay the restore head on top.
	if got := c.AttemptRuntime(3, true); !approxTime(got, 3.4) {
		t.Fatalf("AttemptRuntime(3, resumed) = %v, want 3.4", got)
	}
	// Sub-interval work checkpoints nothing.
	if got, want := c.AttemptRuntime(0.5, false), vclock.Time(0.5); got != want {
		t.Fatalf("AttemptRuntime(0.5, fresh) = %v, want %v", got, want)
	}

	// Killed 2.5s into a fresh attempt: cycles of 1.1 (work+cost), so two
	// completed checkpoints protect 2s of work; 0.2 of cost bought them and
	// 0.3 of partial work is lost.
	surv, lost := c.Rewind(2.5, false)
	if !approxTime(surv, 2) {
		t.Fatalf("Rewind(2.5, fresh): surviving %v, want 2", surv)
	}
	if got := surv + lost + vclock.Time(0.1)*2; !approxTime(got, 2.5) {
		t.Fatalf("Rewind identity: surv %v + lost %v + cost != elapsed 2.5", surv, lost)
	}
	// Killed inside the restore head of a resumed attempt: everything lost.
	if surv, lost := c.Rewind(0.1, true); surv != 0 || !approxTime(lost, 0.1) {
		t.Fatalf("Rewind(0.1, resumed) = (%v, %v), want (0, 0.1)", surv, lost)
	}
	// The zero value never salvages anything.
	var cold FacilityCheckpoint
	if surv, lost := cold.Rewind(5, false); surv != 0 || lost != 5 {
		t.Fatalf("cold Rewind(5) = (%v, %v), want (0, 5)", surv, lost)
	}
	if got := cold.AttemptRuntime(5, true); got != 5 {
		t.Fatalf("cold AttemptRuntime(5, resumed) = %v, want 5 (no restore)", got)
	}
}

func approxTime(a, b vclock.Time) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}
