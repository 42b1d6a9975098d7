package sched

import (
	"testing"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// complementaryMix is the §II-A scenario: CPU-heavy and accelerator-heavy
// jobs that a modular system can co-schedule but an accelerated cluster
// cannot.
func complementaryMix() []Job {
	return []Job{
		{ID: 1, Cluster: 8, Booster: 0, Duration: 10 * vclock.Second},
		{ID: 2, Cluster: 0, Booster: 8, Duration: 10 * vclock.Second},
		{ID: 3, Cluster: 8, Booster: 0, Duration: 10 * vclock.Second},
		{ID: 4, Cluster: 0, Booster: 8, Duration: 10 * vclock.Second},
	}
}

func TestModularBeatsAcceleratedOnComplementaryMix(t *testing.T) {
	// Modular machine: 8 cluster + 8 booster nodes, reserved independently.
	sys := machine.New(8, 8)
	mod, err := SimulateQueue(sys, complementaryMix(), FCFS)
	if err != nil {
		t.Fatal(err)
	}
	// Accelerated cluster: 8 paired nodes (same total CPU + accel count).
	acc, err := SimulateAcceleratedQueue(complementaryMix(), 8)
	if err != nil {
		t.Fatal(err)
	}
	// Modular: CPU job and accel job run simultaneously → 20 s total.
	if mod.Makespan != 20*vclock.Second {
		t.Errorf("modular makespan %v, want 20s", mod.Makespan)
	}
	// Accelerated: every job binds whole nodes → strictly serial → 40 s.
	if acc.Makespan != 40*vclock.Second {
		t.Errorf("accelerated makespan %v, want 40s", acc.Makespan)
	}
	if mod.Makespan >= acc.Makespan {
		t.Error("modular reservation shows no advantage")
	}
}

func TestAcceleratedMixedJobEquivalent(t *testing.T) {
	// A balanced job (c == b) is equally served by both architectures.
	jobs := []Job{{ID: 1, Cluster: 4, Booster: 4, Duration: 5 * vclock.Second}}
	sys := machine.New(4, 4)
	mod, err := SimulateQueue(sys, jobs, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := SimulateAcceleratedQueue(jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mod.Makespan != acc.Makespan {
		t.Errorf("balanced job differs: modular %v vs accelerated %v", mod.Makespan, acc.Makespan)
	}
}

func TestAcceleratedValidation(t *testing.T) {
	if _, err := SimulateAcceleratedQueue(nil, 0); err == nil {
		t.Error("zero nodes accepted")
	}
	jobs := []Job{{ID: 1, Cluster: 9, Duration: vclock.Second}}
	if _, err := SimulateAcceleratedQueue(jobs, 8); err == nil {
		t.Error("oversized job accepted")
	}
}

func TestAcceleratedRespectsArrivals(t *testing.T) {
	jobs := []Job{
		{ID: 1, Cluster: 8, Duration: 2 * vclock.Second},
		{ID: 2, Booster: 8, Arrival: 10 * vclock.Second, Duration: vclock.Second},
	}
	acc, err := SimulateAcceleratedQueue(jobs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Placed[1].Start != 10*vclock.Second {
		t.Errorf("job 2 started at %v", acc.Placed[1].Start)
	}
}
