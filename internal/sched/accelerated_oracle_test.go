package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"clusterbooster/internal/vclock"
)

// acceleratedOracle is the reference accelerated-cluster scheduler: a
// hand-rolled FCFS loop over paired nodes that advances a clock from
// release to release.
func acceleratedOracle(jobs []Job, pairedNodes int) (Schedule, error) {
	if pairedNodes <= 0 {
		return Schedule{}, fmt.Errorf("sched: %d paired nodes", pairedNodes)
	}
	queue := append([]Job(nil), jobs...)
	sort.SliceStable(queue, func(i, j int) bool { return queue[i].Arrival < queue[j].Arrival })

	var sched Schedule
	type ev struct {
		at    vclock.Time
		nodes int
	}
	var running []ev
	free := pairedNodes
	now := vclock.Time(0)

	advanceTo := func(t vclock.Time) {
		now = t
		kept := running[:0]
		for _, e := range running {
			if e.at <= now {
				free += e.nodes
			} else {
				kept = append(kept, e)
			}
		}
		running = kept
	}

	for _, j := range queue {
		need := j.Cluster
		if j.Booster > need {
			need = j.Booster
		}
		if need > pairedNodes {
			return Schedule{}, fmt.Errorf("sched: job %d needs %d paired nodes, machine has %d", j.ID, need, pairedNodes)
		}
		if j.Arrival > now {
			advanceTo(j.Arrival)
		}
		for free < need {
			next := vclock.Time(-1)
			for _, e := range running {
				if next < 0 || e.at < next {
					next = e.at
				}
			}
			if next < 0 {
				return Schedule{}, fmt.Errorf("sched: job %d cannot start", j.ID)
			}
			advanceTo(next)
		}
		p := Placed{Job: j, Start: now, End: now + j.Duration, Cluster: need, Booster: need}
		sched.Placed = append(sched.Placed, p)
		running = append(running, ev{at: p.End, nodes: need})
		free -= need
		if p.End > sched.Makespan {
			sched.Makespan = p.End
		}
	}
	return sched, nil
}

// TestAcceleratedMatchesOracle runs SimulateAcceleratedQueue and the
// reference loop on seeded random job mixes and requires identical
// schedules. Arrivals and durations sit on an integer grid, so arrivals tie
// with each other and with releases; some jobs are zero-length, malleable
// (which the accelerated machine ignores) or unsorted by arrival.
func TestAcceleratedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20180521))
	seeds := 1000
	if testing.Short() {
		seeds = 200
	}
	var ties int
	for s := 0; s < seeds; s++ {
		paired := 1 + rng.Intn(8)
		jobs := make([]Job, rng.Intn(30))
		for i := range jobs {
			c, b := rng.Intn(paired+1), rng.Intn(paired+1)
			jobs[i] = Job{
				ID:       i + 1,
				Name:     fmt.Sprintf("j%d", i),
				Cluster:  c,
				Booster:  b,
				Arrival:  vclock.Time(rng.Intn(10)),
				Duration: vclock.Time(rng.Intn(5)),
			}
			if rng.Intn(4) == 0 {
				jobs[i].Malleable = true
				jobs[i].MinCluster, jobs[i].MinBooster = c/2, b/2
			}
		}
		want, werr := acceleratedOracle(jobs, paired)
		got, gerr := SimulateAcceleratedQueue(jobs, paired)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("seed %d: oracle error %v, queue error %v", s, werr, gerr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (%d paired nodes, jobs %+v):\nqueue  %+v\noracle %+v", s, paired, jobs, got, want)
		}
		for i := 1; i < len(want.Placed); i++ {
			if want.Placed[i].Start == want.Placed[i-1].Start {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no two jobs started at the same instant: the tie cases went untested")
	}
}
