// Resilience: the DEEP-ER checkpoint/restart stack of §III-D, live on the
// discrete-event kernel. A four-rank xPic job checkpoints through SCR every
// few steps (local NVMe plus a buddy copy via SIONlib), a seeded node
// failure fires as a kernel event mid-run and tears the job down, and the
// replay driver rewinds to the best surviving checkpoint level and
// re-executes — so the reported makespan contains the failure-free work plus
// the lost work, the restart overhead and the restore I/O, exactly as the
// paper's SCR extension trades them. The Young/Daly optimal interval is
// computed from the prototype's failure model alongside.
package main

import (
	"fmt"
	"log"

	"clusterbooster"
	"clusterbooster/internal/scr"
	"clusterbooster/internal/vclock"
	"clusterbooster/internal/xpic"
)

func main() {
	params := clusterbooster.ResilienceParams{
		Mode:            xpic.ClusterOnly,
		Nodes:           4,
		Workload:        clusterbooster.XPicQuickConfig(24),
		CheckpointEvery: 4,
		SCR:             scr.Config{BuddyEvery: 1},
		RestartOverhead: 2 * vclock.Millisecond,
	}

	// Failure-free baseline first: what the job costs when nothing breaks.
	clean, err := clusterbooster.RunResilience(params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("failure-free: makespan %v, %d checkpoints costing %v\n",
		clean.Report.Makespan, clean.Checkpoints, clean.CheckpointTime)

	// Checkpoint planning from the failure model (§III-D: SCR extended to
	// decide where and how often checkpoints happen). The MTBF is in virtual
	// seconds, scaled to this miniature workload.
	mtbf := 16 * vclock.Millisecond
	perCkpt := clean.CheckpointTime / vclock.Time(clean.Checkpoints)
	fmt.Printf("failure model: per-node MTBF %v, system MTBF %v over %d nodes\n",
		mtbf, mtbf/vclock.Time(params.Nodes), params.Nodes)
	fmt.Printf("Young/Daly optimal interval for a %v checkpoint: %v\n\n",
		perCkpt, scr.OptimalInterval(perCkpt, mtbf/vclock.Time(params.Nodes)))

	// Now the same job under live failure injection: a node dies mid-run as
	// a kernel event, every rank is torn down, and the job rewinds to the
	// best surviving checkpoint level.
	params.MTBF = mtbf
	params.Seed = 6
	params.MaxFailures = 1
	out, err := clusterbooster.RunResilience(params)
	if err != nil {
		log.Fatal(err)
	}
	if out.Failures == 0 {
		log.Fatal("the seeded failure never fired — resiliency untested")
	}
	for _, r := range out.Restarts {
		if r.Cold {
			fmt.Printf("node %s failed at %v — no surviving checkpoint, cold restart (lost %v)\n",
				r.FailedNode, r.At, r.LostWork)
			continue
		}
		fmt.Printf("node %s failed at %v — restarted from step %d (lost %v, restore %v)\n",
			r.FailedNode, r.At, r.FromStep, r.LostWork, r.RestoreTime)
		for rank, lv := range r.Levels {
			fmt.Printf("  rank %d restored from %-6s level\n", rank, lv)
		}
	}
	fmt.Printf("\nwith failure: makespan %v (%.1f%% of failure-free performance retained)\n",
		out.Report.Makespan, 100*clean.Report.Makespan.Seconds()/out.Report.Makespan.Seconds())
	fmt.Printf("accounting: lost work %v + restart overhead %v + restore %v\n",
		out.LostWork, out.RestartOverheadTotal, out.RestoreTime)
	if out.Report.Checksum != clean.Report.Checksum {
		log.Fatal("restart changed the physics — restart correctness violated")
	}
	fmt.Println("physics checksum identical to the failure-free run — restart is exact")
}
