package sched

import (
	"testing"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

func TestQueueFCFSOrder(t *testing.T) {
	sys := machine.Prototype()
	jobs := []Job{
		{ID: 1, Cluster: 16, Duration: 10 * vclock.Second},
		{ID: 2, Cluster: 1, Duration: 1 * vclock.Second},
	}
	s, err := SimulateQueue(sys, jobs, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if s.Placed[0].Job.ID != 1 || s.Placed[1].Job.ID != 2 {
		t.Fatalf("FCFS order violated: %+v", s.Placed)
	}
	// Job 2 must wait for job 1 despite being tiny.
	if s.Placed[1].Start != 10*vclock.Second {
		t.Errorf("job 2 started at %v, want 10s", s.Placed[1].Start)
	}
}

func TestQueueBackfill(t *testing.T) {
	sys := machine.Prototype()
	jobs := []Job{
		{ID: 1, Cluster: 10, Duration: 10 * vclock.Second},
		{ID: 2, Cluster: 16, Duration: 5 * vclock.Second}, // blocked head
		{ID: 3, Cluster: 4, Duration: 10 * vclock.Second}, // fits the hole
		{ID: 4, Cluster: 4, Duration: 20 * vclock.Second}, // would delay head
	}
	s, err := SimulateQueue(sys, jobs, Backfill)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int]Placed{}
	for _, p := range s.Placed {
		byID[p.Job.ID] = p
	}
	if byID[3].Start != 0 {
		t.Errorf("job 3 not backfilled: start %v", byID[3].Start)
	}
	if byID[2].Start != 10*vclock.Second {
		t.Errorf("head job delayed by backfill: start %v, want 10s", byID[2].Start)
	}
	if byID[4].Start < 10*vclock.Second {
		t.Errorf("job 4 jumped ahead and would have delayed the head: start %v", byID[4].Start)
	}
}

func TestQueueBackfillBeatsFCFS(t *testing.T) {
	sys := machine.Prototype()
	jobs := []Job{
		{ID: 1, Cluster: 10, Duration: 10 * vclock.Second},
		{ID: 2, Cluster: 16, Duration: 5 * vclock.Second},
		{ID: 3, Cluster: 4, Duration: 9 * vclock.Second},
	}
	fc, err := SimulateQueue(sys, jobs, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := SimulateQueue(sys, jobs, Backfill)
	if err != nil {
		t.Fatal(err)
	}
	if bf.AverageWait() >= fc.AverageWait() {
		t.Errorf("backfill wait %v not better than FCFS %v", bf.AverageWait(), fc.AverageWait())
	}
}

func TestQueueMalleableShrinks(t *testing.T) {
	sys := machine.Prototype()
	jobs := []Job{
		{ID: 1, Cluster: 12, Duration: 10 * vclock.Second},
		{ID: 2, Cluster: 8, MinCluster: 4, Malleable: true, Duration: 8 * vclock.Second},
	}
	s, err := SimulateQueue(sys, jobs, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	p2 := s.Placed[1]
	if p2.Start != 0 {
		t.Fatalf("malleable job waited: start %v", p2.Start)
	}
	if p2.Cluster != 4 {
		t.Fatalf("malleable job granted %d nodes, want 4", p2.Cluster)
	}
	// Runtime stretched by 8/4 = 2×.
	if p2.End != 16*vclock.Second {
		t.Fatalf("stretched end %v, want 16s", p2.End)
	}
}

func TestQueueImpossibleJob(t *testing.T) {
	sys := machine.Prototype()
	if _, err := SimulateQueue(sys, []Job{{ID: 1, Cluster: 99, Duration: vclock.Second}}, FCFS); err == nil {
		t.Fatal("impossible job accepted")
	}
}

func TestQueueUtilisation(t *testing.T) {
	sys := machine.Prototype()
	jobs := []Job{{ID: 1, Cluster: 16, Duration: 10 * vclock.Second}}
	s, err := SimulateQueue(sys, jobs, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if u := s.Utilisation(sys, machine.Cluster); u < 0.99 || u > 1.01 {
		t.Errorf("utilisation = %v, want 1.0", u)
	}
	if u := s.Utilisation(sys, machine.Booster); u != 0 {
		t.Errorf("booster utilisation = %v, want 0", u)
	}
}

func TestQueueRespectsArrivals(t *testing.T) {
	sys := machine.Prototype()
	jobs := []Job{
		{ID: 1, Cluster: 1, Arrival: 5 * vclock.Second, Duration: vclock.Second},
	}
	s, err := SimulateQueue(sys, jobs, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if s.Placed[0].Start != 5*vclock.Second {
		t.Errorf("job started at %v before its arrival", s.Placed[0].Start)
	}
	if s.Placed[0].Wait() != 0 {
		t.Errorf("wait = %v, want 0", s.Placed[0].Wait())
	}
}

// TestQueueCoScheduling exercises the paper's throughput argument: pairing a
// cluster-heavy and a booster-heavy job keeps both modules busy at once.
func TestQueueCoScheduling(t *testing.T) {
	sys := machine.Prototype()
	jobs := []Job{
		{ID: 1, Cluster: 16, Booster: 0, Duration: 10 * vclock.Second},
		{ID: 2, Cluster: 0, Booster: 8, Duration: 10 * vclock.Second},
	}
	s, err := SimulateQueue(sys, jobs, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 10*vclock.Second {
		t.Errorf("complementary jobs did not co-schedule: makespan %v, want 10s", s.Makespan)
	}
}
