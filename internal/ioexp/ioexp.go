// Package ioexp is the fig-io workload: the DEEP-ER I/O strategies of
// §III-C driven as real MPI-style jobs on the discrete-event kernel. One
// run boots a fresh system, launches one rank per node, and has every rank
// push a checkpoint-sized payload through one I/O strategy — SIONlib
// containers (global BeeGFS or node-local NVMe), BeeOND cache domains
// (write-through or async), buddy copies, or the network-attached memory.
//
// Each strategy reports two instants the paper's I/O discussion cares
// about: when the application regains control (Return) and when the data
// is safe at the strategy's destination (Durable). The gap between the two
// is exactly what asynchronous staging buys.
package ioexp

import (
	"fmt"

	"clusterbooster/internal/beegfs"
	"clusterbooster/internal/core"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/nam"
	"clusterbooster/internal/psmpi"
	"clusterbooster/internal/sion"
	"clusterbooster/internal/vclock"
)

// Strategy selects the I/O path every rank writes through.
type Strategy string

const (
	// SIONGlobal concentrates all rank streams into one SIONlib container
	// on the global BeeGFS (task-local I/O, §III-C).
	SIONGlobal Strategy = "sion-global"
	// SIONLocal writes a per-rank SIONlib container onto the rank's own
	// node-local NVMe.
	SIONLocal Strategy = "sion-local"
	// CacheSync writes through a BeeOND cache domain in write-through mode:
	// the write returns only when the global FS holds the data.
	CacheSync Strategy = "cache-sync"
	// CacheAsync writes into a BeeOND cache domain asynchronously: the
	// write returns at NVMe speed, the flush to the global FS completes in
	// the background and is awaited by a final drain.
	CacheAsync Strategy = "cache-async"
	// Buddy stores the payload on the local NVMe and ships a redundant
	// copy to the neighbour rank's NVMe (SCR's buddy level).
	Buddy Strategy = "buddy"
	// NAM writes the payload into the network-attached memory by RDMA.
	NAM Strategy = "nam"
)

// Strategies lists every strategy in fig-io's row order.
func Strategies() []Strategy {
	return []Strategy{SIONGlobal, SIONLocal, CacheSync, CacheAsync, Buddy, NAM}
}

// Params is one fig-io grid point.
type Params struct {
	Strategy Strategy
	Nodes    int   // ranks, one per Cluster node
	Size     int64 // payload bytes per rank
}

// Outcome aggregates a run. All instants are virtual job time.
type Outcome struct {
	Makespan vclock.Time // job end (last rank exits)
	Return   vclock.Time // max over ranks: application regains control
	Durable  vclock.Time // all payloads safe at the strategy's destination
	Bytes    int64       // total payload bytes across ranks
}

// Run executes one grid point on a freshly booted system.
func Run(p Params) (Outcome, error) {
	if p.Nodes <= 0 || p.Size <= 0 {
		return Outcome{}, fmt.Errorf("ioexp: invalid params %+v", p)
	}
	return run(core.New(p.Nodes, 0, core.Options{}), p)
}

// run executes one grid point on sys, whose file systems keep what the
// ranks stored.
func run(sys *core.System, p Params) (Outcome, error) {
	nodes, err := sys.ClusterNodes(p.Nodes)
	if err != nil {
		return Outcome{}, err
	}

	const blockSize = 256 << 10
	var ret, durable vclock.Time
	note := func(dst *vclock.Time, t vclock.Time) {
		// The kernel is cooperative: ranks never run host-concurrently, so
		// plain max-accumulation is safe.
		*dst = vclock.Max(*dst, t)
	}

	// Strategy-shared fixtures built before the job, priced from instant 0.
	var w *sion.Writer
	var cache *beegfs.Cache
	regions := map[int]*nam.Region{}
	switch p.Strategy {
	case SIONGlobal:
		w, _, err = sion.SubmitCreate(sys.FS, "/io/all.sion", p.Nodes, blockSize, nodes[0], ioev.At(0))
		if err != nil {
			return Outcome{}, err
		}
	case CacheSync:
		cache = beegfs.NewCache(sys.FS, beegfs.CacheSync, sys.NVMe)
	case CacheAsync:
		cache = beegfs.NewCache(sys.FS, beegfs.CacheAsync, sys.NVMe)
	case NAM:
		dev := sys.NAM[0]
		for rank, n := range nodes {
			if regions[rank], err = dev.Alloc(fmt.Sprintf("io/%s", n.Name()), p.Size); err != nil {
				return Outcome{}, err
			}
		}
	}

	// One payload buffer serves every rank: each write path copies the
	// caller's data before it returns and keeps none of it, so the next
	// rank may refill the buffer as soon as this one is parked. The
	// buddy and NAM strategies move sizes only and never make it.
	var buf []byte
	payload := func(rank int) []byte {
		if buf == nil {
			buf = make([]byte, p.Size)
		}
		// Fill by doubling copies: memmove speed, unlike a byte loop.
		buf[0] = byte('a' + rank%26)
		for n := 1; n < len(buf); n *= 2 {
			copy(buf[n:], buf[:n])
		}
		return buf
	}

	res, err := sys.Runtime.Launch(psmpi.LaunchSpec{Nodes: nodes, Main: func(q *psmpi.Proc) error {
		rank := q.Rank()
		switch p.Strategy {
		case SIONGlobal:
			op, err := w.SubmitWriteTask(ioev.Start(q), rank, payload(rank), q.Node())
			if err != nil {
				return err
			}
			ioev.Await(q, op)
			note(&ret, q.Now())
			q.Barrier(q.World())
			if rank == 0 {
				op, err := w.SubmitClose(ioev.Start(q), q.Node())
				if err != nil {
					return err
				}
				ioev.Await(q, op)
				note(&durable, q.Now())
			}
		case SIONLocal:
			b := sion.NewDeviceBackend(sys.NVMe[q.Node().ID])
			lw, op, err := sion.SubmitCreate(b, "/io/local.sion", 1, blockSize, q.Node(), ioev.Start(q))
			if err != nil {
				return err
			}
			ioev.Await(q, op)
			if op, err = lw.SubmitWriteTask(ioev.Start(q), 0, payload(rank), q.Node()); err != nil {
				return err
			}
			ioev.Await(q, op)
			if op, err = lw.SubmitClose(ioev.Start(q), q.Node()); err != nil {
				return err
			}
			ioev.Await(q, op)
			note(&ret, q.Now())
			note(&durable, q.Now())
		case CacheSync, CacheAsync:
			if err := cache.Write(q, fmt.Sprintf("/io/rank%d", rank), payload(rank)); err != nil {
				return err
			}
			note(&ret, q.Now())
			q.Barrier(q.World())
			if rank == 0 {
				cache.Drain(q)
				note(&durable, q.Now())
			}
		case Buddy:
			// The app continues once the local copy landed; the redundant
			// copy to the neighbour's NVMe trails behind it (SCR's buddy
			// level, but measured as the two instants it splits into).
			name := fmt.Sprintf("io/rank%d", rank)
			op, err := sys.NVMe[q.Node().ID].SubmitPut(ioev.Start(q), name, p.Size)
			if err != nil {
				return err
			}
			ioev.Await(q, op)
			note(&ret, q.Now())
			buddy := nodes[(rank+1)%p.Nodes]
			if op, err = sion.SubmitBuddy(sys.Network, q.Node(), buddy, sys.NVMe[buddy.ID], name, p.Size, ioev.Start(q)); err != nil {
				return err
			}
			ioev.Await(q, op)
			note(&durable, q.Now())
		case NAM:
			op, err := regions[rank].SubmitWrite(ioev.Start(q), q.Node(), p.Size)
			if err != nil {
				return err
			}
			ioev.Await(q, op)
			note(&ret, q.Now())
			note(&durable, q.Now())
		default:
			return fmt.Errorf("ioexp: unknown strategy %q", p.Strategy)
		}
		return nil
	}})
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		Makespan: res.Makespan,
		Return:   ret,
		Durable:  durable,
		Bytes:    int64(p.Nodes) * p.Size,
	}, nil
}
