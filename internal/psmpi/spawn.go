package psmpi

import (
	"fmt"

	"clusterbooster/internal/machine"
)

// SpawnSpec describes an MPI_Comm_spawn request.
type SpawnSpec struct {
	// Binary names a program previously installed with Runtime.Register —
	// the analogue of the executable path passed to MPI_Comm_spawn.
	Binary string
	// Procs is the number of child processes to start.
	Procs int
	// Module selects where the children run (the "host" info key of the
	// paper's setup: xPic starts on the Booster and spawns onto the Cluster).
	Module machine.Module
	// Args is the opaque argument block the children see via Proc.Args.
	Args any
}

// spawnHandle is broadcast from the spawn root to the other parents.
type spawnHandle struct {
	inter *Comm
	err   error
}

// Spawn implements MPI_Comm_spawn (§III-A, Fig. 4 of the paper): a collective
// call over the comm c that starts spec.Procs new processes running
// spec.Binary on spec.Module, and returns an inter-communicator whose local
// group is the parents and whose remote group is the children. The children
// obtain their side of the inter-communicator via Proc.Parent.
//
// All ranks of c must call Spawn with the same spec. Rank 0 acts as the root:
// it asks the resource manager for nodes, boots the children and distributes
// the inter-communicator.
func (p *Proc) Spawn(c *Comm, spec SpawnSpec) (*Comm, error) {
	if c.IsInter() {
		return nil, fmt.Errorf("psmpi: spawn over an inter-communicator")
	}
	if spec.Procs <= 0 {
		return nil, fmt.Errorf("psmpi: spawn of %d procs", spec.Procs)
	}
	p.Stats.Spawns++

	// Synchronise the parents: the spawn completes collectively.
	p.Barrier(c)

	me := p.rankIn(c)
	var h spawnHandle
	if me == 0 {
		h = p.spawnRoot(c, spec)
	}
	// Distribute the handle (a control message of negligible size).
	out := p.Bcast(c, 0, h, 64)
	h = out.(spawnHandle)
	if h.err != nil {
		return nil, h.err
	}
	// Booting the children takes the configured overhead on every parent.
	p.addComm(p.rt.cfg.SpawnOverhead)
	// Register this parent's rank in the inter-communicator.
	p.commRank[h.inter.id] = me
	return h.inter, nil
}

// spawnRoot performs the root side of the spawn: placement, child world
// construction and job start.
func (p *Proc) spawnRoot(c *Comm, spec SpawnSpec) spawnHandle {
	main, err := p.rt.lookup(spec.Binary)
	if err != nil {
		return spawnHandle{err: err}
	}
	nodes, err := p.placeSpawn(spec.Procs, spec.Module)
	if err != nil {
		return spawnHandle{err: fmt.Errorf("psmpi: spawn placement: %w", err)}
	}

	// The children's clocks start after the spawn overhead has elapsed on
	// the (synchronised) parents.
	start := p.clock.Now() + p.rt.cfg.SpawnOverhead

	// Parents' view: local = parents, remote = children. Children's view:
	// the reverse. Both share one id, so matching is symmetric.
	inter := &Comm{rt: p.rt, id: p.rt.nextCommID(), local: c.local}
	childView := &Comm{rt: p.rt, id: inter.id, remote: c.local}

	world := p.rt.newWorld(p.l, nodes, spec.Args, start, childView)
	inter.remote = world.local
	childView.local = world.local
	for i, child := range world.local {
		child.commRank[inter.id] = i
	}

	p.rt.startJob(p.l, world, main, start)
	return spawnHandle{inter: inter}
}
