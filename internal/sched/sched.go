// Package sched is the resource manager and batch system of the simulated
// Cluster-Booster machine — the role ParaStation management plus the DEEP
// batch-system extensions play on the prototype (§II-A of the paper, ref [5]).
//
// Its three jobs:
//
//  1. Online allocation: reserve Cluster and Booster nodes independently (the
//     property §II-A contrasts with accelerated clusters), and place spawned
//     process groups (psmpi.Placement) — either machine-wide (Manager) or
//     inside a live allocation (Allocation.PlaceSpawn).
//  2. Batch scheduling on the event kernel: SimulateQueue runs the job stream
//     as kernel callbacks (arrival, grant, completion) under FCFS or
//     FCFS+conservative-backfill, including malleable jobs that shrink to
//     available resources, as in the DEEP scheduling work (ref [5]).
//  3. Facility simulation: RunFacility drives a seeded synthetic arrival
//     stream — thousands of concurrent jobs on one kernel — through the
//     queue policies and reports utilization, bounded slowdown and makespan.
//
// # Why there is no lock here
//
// Through PR 6 the Manager carried a sync.Mutex, a holdover from the
// pre-kernel goroutine/rendezvous execution model where any rank's goroutine
// could call Alloc or Release at any host moment. On the event kernel that
// concurrency does not exist: every execution context of a simulated job is
// an engine.Task or a kernel callback, and exactly one of them runs at a
// time (the baton), so every Manager call is already serialised by the
// kernel. Across scenarios there is no sharing either — each sweep scenario
// boots a private core.System with its own Manager. Dropping the mutex
// follows the same argument that removed the locks from scr and the I/O
// stack: the kernel's cooperative scheduling is the synchronisation.
package sched

import (
	"fmt"
	"sort"

	"clusterbooster/internal/machine"
)

// Manager tracks node availability and serves allocations. It is kernel
// state: all methods must be called from the owning scenario's goroutines
// (one task at a time under the engine baton), never shared across
// scenarios — see the package comment for the serialization argument.
type Manager struct {
	sys *machine.System

	free  map[machine.Module][]*machine.Node
	next  int
	alloc map[int]*Allocation
	rr    map[machine.Module]int // round-robin cursor for oversubscribed spawns
}

// Allocation is a reserved set of nodes, possibly spanning both modules.
type Allocation struct {
	ID      int
	Cluster []*machine.Node
	Booster []*machine.Node

	rr map[machine.Module]int // round-robin cursor for in-allocation spawns
}

// Nodes returns all nodes of the allocation, Cluster first.
func (a *Allocation) Nodes() []*machine.Node {
	out := append([]*machine.Node(nil), a.Cluster...)
	return append(out, a.Booster...)
}

// PlaceSpawn implements psmpi.Placement scoped to the allocation: spawned
// groups land round-robin on the allocation's own nodes of the target
// module, never outside the reservation — the batch-system behaviour of the
// prototype, where a job's dynamic spawns stay inside its booking. Install
// it per launch via psmpi.LaunchSpec.Placement.
func (a *Allocation) PlaceSpawn(n int, mod machine.Module) ([]*machine.Node, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sched: spawn of %d procs", n)
	}
	pool := a.Cluster
	if mod == machine.Booster {
		pool = a.Booster
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("sched: allocation %d holds no %v nodes", a.ID, mod)
	}
	if a.rr == nil {
		a.rr = map[machine.Module]int{}
	}
	out := make([]*machine.Node, n)
	for i := range out {
		out[i] = pool[(a.rr[mod]+i)%len(pool)]
	}
	a.rr[mod] = (a.rr[mod] + n) % len(pool)
	return out, nil
}

// NewManager builds a manager with all nodes of the system free.
func NewManager(sys *machine.System) *Manager {
	m := &Manager{
		sys:   sys,
		free:  map[machine.Module][]*machine.Node{},
		alloc: map[int]*Allocation{},
		rr:    map[machine.Module]int{},
	}
	for _, mod := range sys.Modules() {
		m.free[mod] = append([]*machine.Node(nil), sys.Module(mod)...)
	}
	return m
}

// FreeCount returns the number of free nodes in a module.
func (m *Manager) FreeCount(mod machine.Module) int {
	return len(m.free[mod])
}

// Alloc reserves cluster + booster nodes. It fails without side effects if
// either module cannot satisfy the request.
func (m *Manager) Alloc(cluster, booster int) (*Allocation, error) {
	if cluster < 0 || booster < 0 {
		return nil, fmt.Errorf("sched: negative allocation request (%d, %d)", cluster, booster)
	}
	if cluster > len(m.free[machine.Cluster]) {
		return nil, fmt.Errorf("sched: %d cluster nodes requested, %d free", cluster, len(m.free[machine.Cluster]))
	}
	if booster > len(m.free[machine.Booster]) {
		return nil, fmt.Errorf("sched: %d booster nodes requested, %d free", booster, len(m.free[machine.Booster]))
	}
	m.next++
	a := &Allocation{ID: m.next}
	a.Cluster, m.free[machine.Cluster] = take(m.free[machine.Cluster], cluster)
	a.Booster, m.free[machine.Booster] = take(m.free[machine.Booster], booster)
	m.alloc[a.ID] = a
	return a, nil
}

func take(pool []*machine.Node, n int) (got, rest []*machine.Node) {
	got = append([]*machine.Node(nil), pool[:n]...)
	rest = pool[n:]
	return got, rest
}

// Release returns an allocation's nodes to the free pools. Releasing an
// unknown allocation is a no-op (idempotent release).
func (m *Manager) Release(a *Allocation) {
	if a == nil {
		return
	}
	if _, ok := m.alloc[a.ID]; !ok {
		return
	}
	delete(m.alloc, a.ID)
	m.free[machine.Cluster] = append(m.free[machine.Cluster], a.Cluster...)
	m.free[machine.Booster] = append(m.free[machine.Booster], a.Booster...)
	sortByID(m.free[machine.Cluster])
	sortByID(m.free[machine.Booster])
}

func sortByID(ns []*machine.Node) {
	sort.Slice(ns, func(i, j int) bool { return ns[i].ID < ns[j].ID })
}

// Grow extends an existing allocation by extra nodes of one module — the
// malleability primitive of ref [5]. Returns the added nodes.
func (m *Manager) Grow(a *Allocation, mod machine.Module, extra int) ([]*machine.Node, error) {
	if extra < 0 || extra > len(m.free[mod]) {
		return nil, fmt.Errorf("sched: cannot grow by %d %v nodes (%d free)", extra, mod, len(m.free[mod]))
	}
	var got []*machine.Node
	got, m.free[mod] = take(m.free[mod], extra)
	switch mod {
	case machine.Cluster:
		a.Cluster = append(a.Cluster, got...)
	case machine.Booster:
		a.Booster = append(a.Booster, got...)
	}
	return got, nil
}

// Shrink releases the last n nodes of one module from the allocation.
func (m *Manager) Shrink(a *Allocation, mod machine.Module, n int) error {
	pool := &a.Cluster
	if mod == machine.Booster {
		pool = &a.Booster
	}
	if n < 0 || n > len(*pool) {
		return fmt.Errorf("sched: cannot shrink %v side by %d (have %d)", mod, n, len(*pool))
	}
	cut := (*pool)[len(*pool)-n:]
	*pool = (*pool)[:len(*pool)-n]
	m.free[mod] = append(m.free[mod], cut...)
	sortByID(m.free[mod])
	return nil
}

// PlaceSpawn implements psmpi.Placement: spawned groups prefer free nodes of
// the target module and fall back to round-robin over all module nodes
// (oversubscription), which is how a small prototype keeps spawns running
// when the module is fully booked.
func (m *Manager) PlaceSpawn(n int, mod machine.Module) ([]*machine.Node, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sched: spawn of %d procs", n)
	}
	if free := m.free[mod]; len(free) > 0 {
		out := make([]*machine.Node, n)
		for i := range out {
			out[i] = free[i%len(free)]
		}
		return out, nil
	}
	all := m.sys.Module(mod)
	if len(all) == 0 {
		return nil, fmt.Errorf("sched: module %v has no nodes", mod)
	}
	out := make([]*machine.Node, n)
	for i := range out {
		out[i] = all[(m.rr[mod]+i)%len(all)]
	}
	m.rr[mod] = (m.rr[mod] + n) % len(all)
	return out, nil
}
