// Package sched is the batch system of the simulated Cluster-Booster
// machine — the role ParaStation management plus the DEEP batch-system
// extensions play on the prototype (§II-A of the paper, ref [5]).
//
// Its jobs:
//
//  1. Batch scheduling on the event kernel: SimulateQueue runs the job stream
//     as kernel callbacks (arrival, grant, completion) under FCFS or
//     FCFS+conservative-backfill, including malleable jobs that shrink to
//     available resources, as in the DEEP scheduling work (ref [5]). Cluster
//     and Booster nodes are granted independently, from one free-node
//     counter per module — the property §II-A contrasts with accelerated
//     clusters (SimulateAcceleratedQueue).
//  2. Facility simulation: RunFacility drives a seeded synthetic arrival
//     stream — thousands of concurrent jobs on one kernel — through the
//     queue policies and reports utilization, bounded slowdown and makespan.
//
// Spawned MPI process groups are placed by psmpi itself, round-robin over
// the target module's nodes; no allocation state lives here.
//
// # Why there is no lock here
//
// A queue run's state is touched only from its kernel callbacks, and the
// event kernel runs exactly one of them at a time (the baton), so every
// access is already serialised. Across scenarios there is no sharing
// either: each run builds its own queue state. The kernel's cooperative
// scheduling is the synchronisation, the same argument that removed the
// locks from scr and the I/O stack.
package sched
