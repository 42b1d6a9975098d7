// Spaceweather: the paper's use case (§IV). Runs the xPic particle-in-cell
// space-weather simulation in all three scenarios of Fig. 7 — Cluster-only,
// Booster-only, and the Cluster-Booster split in which the field solver runs
// on Haswell nodes and the particle solver on KNL nodes — and reports the
// per-solver times and partitioning gains.
//
// The workload is a reduced version of Table II so the example finishes in
// seconds; `cbctl run -text fig7` runs the registered experiment.
package main

import (
	"fmt"
	"log"

	"clusterbooster"
	"clusterbooster/internal/xpic"
)

func main() {
	cfg := clusterbooster.XPicTable2Config()
	cfg.Steps = 90          // reduced from 900
	cfg.ParticleScale = 512 // fewer macro-particles, same virtual cost

	fmt.Println("xPic space-weather benchmark (reduced Table II workload)")
	fmt.Printf("grid %dx%d, %d particles/cell, %d steps\n\n",
		cfg.NX, cfg.NY, cfg.PPC, cfg.Steps)

	run := func(mode xpic.Mode) clusterbooster.XPicReport {
		sys := clusterbooster.New(1, 1, clusterbooster.Options{WithoutStorage: true})
		rep, err := sys.RunXPic(mode, 1, cfg)
		if err != nil {
			log.Fatalf("%v: %v", mode, err)
		}
		fmt.Println(rep)
		return rep
	}

	c, b, cb := run(xpic.ClusterOnly), run(xpic.BoosterOnly), run(xpic.SplitCB)

	fmt.Printf("\nfield solver is %.1f× faster on the Cluster (paper: 6×)\n",
		b.FieldTime.Seconds()/c.FieldTime.Seconds())
	fmt.Printf("particle solver is %.2f× faster on the Booster (paper: 1.35×)\n",
		c.ParticleTime.Seconds()/b.ParticleTime.Seconds())
	fmt.Printf("C+B mode is %.2f× faster than Cluster-only (paper: 1.28×)\n",
		c.Makespan.Seconds()/cb.Makespan.Seconds())
	fmt.Printf("C+B mode is %.2f× faster than Booster-only (paper: 1.21×)\n",
		b.Makespan.Seconds()/cb.Makespan.Seconds())
	fmt.Printf("physics identical in all modes: checksum %.6g (cluster) vs %.6g (C+B)\n",
		c.Checksum, cb.Checksum)
}
