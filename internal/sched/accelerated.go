package sched

import (
	"fmt"

	"clusterbooster/internal/machine"
)

// This file implements the architectural comparison behind §II-A of the
// paper: "the Cluster-Booster concept poses no constraints on the
// combination of CPU and accelerator nodes that an application may select,
// since resources are reserved and allocated independently. ... all
// resources can be put to good use by a system-wide resource manager."
//
// In a conventional *accelerated cluster*, every node statically pairs a CPU
// with an accelerator: a job occupies whole nodes, so a CPU-only job strands
// accelerators and vice versa. SimulateAcceleratedQueue schedules the same
// job mix on such a machine, letting benchmarks quantify the throughput
// advantage of modular (independent) reservation.

// SimulateAcceleratedQueue schedules jobs on an accelerated cluster with
// pairedNodes nodes (each one CPU + one accelerator). A job requesting c
// cluster nodes and b booster nodes needs max(c, b) paired nodes, binding
// both halves of each node for its whole runtime. FCFS discipline.
//
// The machine is the kernel queue on pairedNodes nodes per module where
// every job asks for max(c, b) nodes of both: the two halves of a paired
// node are then always reserved together. Each Placed entry carries the
// caller's original job.
func SimulateAcceleratedQueue(jobs []Job, pairedNodes int) (Schedule, error) {
	if pairedNodes <= 0 {
		return Schedule{}, fmt.Errorf("sched: %d paired nodes", pairedNodes)
	}
	paired := make([]Job, len(jobs))
	for i, j := range jobs {
		need := max(j.Cluster, j.Booster)
		if need > pairedNodes {
			return Schedule{}, fmt.Errorf("sched: job %d needs %d paired nodes, machine has %d", j.ID, need, pairedNodes)
		}
		// The ID indexes jobs, so each placement maps back to its request.
		paired[i] = Job{ID: i, Cluster: need, Booster: need, Arrival: j.Arrival, Duration: j.Duration}
	}
	sched, err := NewManager(machine.New(pairedNodes, pairedNodes)).SimulateQueue(paired, FCFS)
	if err != nil {
		return Schedule{}, err
	}
	for i := range sched.Placed {
		sched.Placed[i].Job = jobs[sched.Placed[i].Job.ID]
	}
	return sched, nil
}
