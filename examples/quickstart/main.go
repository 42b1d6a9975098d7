// Quickstart: boot the DEEP-ER prototype, inspect it, and run the paper's
// offload pattern (Fig. 4) — a job on the Cluster spawns MPI processes onto
// the Booster and talks to them through the inter-communicator.
package main

import (
	"fmt"
	"log"

	"clusterbooster"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/psmpi"
)

func main() {
	// The DEEP-ER prototype: 16 Cluster nodes (Haswell) + 8 Booster nodes
	// (KNL) on one EXTOLL-like fabric, with NVMe, NAM and BeeGFS attached.
	sys := clusterbooster.Prototype()
	fmt.Printf("booted %d cluster + %d booster nodes, %d NVMe devices, %d NAM cards\n",
		sys.Machine.NodeCount(machine.Cluster),
		sys.Machine.NodeCount(machine.Booster),
		len(sys.NVMe), len(sys.NAM))

	// Install the "binary" the Booster side will run.
	sys.Runtime.Register("hello_booster", func(p *psmpi.Proc) error {
		parent := p.Parent()
		buf := p.Recv(parent, 0, 1) // the body now belongs to this rank
		fmt.Printf("  booster rank %d on %s got %.0f from the cluster (at virtual t=%v)\n",
			p.Rank(), p.Node().Name(), buf[0], p.Now())
		buf[0] *= 10
		p.Send(parent, 0, 2, buf, 8) // and now to the cluster rank
		return nil
	})

	// Launch a 2-rank job on the Cluster; rank 0 coordinates the spawn.
	nodes, err := sys.ClusterNodes(2)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Runtime.Launch(psmpi.LaunchSpec{
		Nodes: nodes,
		Main: func(p *psmpi.Proc) error {
			// MPI_Comm_spawn: 3 children on the Booster (Fig. 4).
			inter, err := p.Spawn(p.World(), psmpi.SpawnSpec{
				Binary: "hello_booster", Procs: 3, Module: machine.Booster,
			})
			if err != nil {
				return err
			}
			if p.Rank() != 0 {
				return nil
			}
			for child := 0; child < inter.RemoteSize(); child++ {
				p.Send(inter, child, 1, []float64{float64(child + 1)}, 8)
			}
			sum := 0.0
			for child := 0; child < inter.RemoteSize(); child++ {
				sum += p.Recv(inter, child, 2)[0]
			}
			fmt.Printf("cluster rank 0 collected %.0f from the booster children\n", sum)
			return nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job finished at virtual time %v\n", res.Makespan)
}
