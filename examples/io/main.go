// IO: the DEEP-ER I/O stack of §III-C, driven as a real MPI-style job on
// the discrete-event kernel. Sixteen ranks write task-local output through
// SIONlib into one container on BeeGFS and read it back verified; then a
// BeeOND cache domain on node-local NVMe absorbs a checkpoint burst in
// asynchronous and synchronous mode, showing why the async return is the
// one applications see.
package main

import (
	"bytes"
	"fmt"
	"log"

	"clusterbooster/internal/beegfs"
	"clusterbooster/internal/core"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/psmpi"
	"clusterbooster/internal/sion"
	"clusterbooster/internal/vclock"
)

func main() {
	sys := core.Prototype()

	const ntasks = 16
	nodes, err := sys.ClusterNodes(ntasks)
	if err != nil {
		log.Fatal(err)
	}

	// --- SIONlib: task-local I/O concentrated into one container file ---
	// Rank 0 opens the container before the job; every rank streams its own
	// 1 MiB payload, a barrier makes all writes visible, and rank 0 seals
	// the container (SIONlib's collective close).
	w, _, err := sion.SubmitCreate(sys.FS, "/data/moments.sion", ntasks, 64<<10, nodes[0], ioev.At(0))
	if err != nil {
		log.Fatal(err)
	}
	payloads := make([][]byte, ntasks)
	for task := range payloads {
		payloads[task] = bytes.Repeat([]byte{byte('A' + task)}, 1<<20)
	}
	var tClose, tRead vclock.Time
	var got []byte
	res, err := sys.Runtime.Launch(psmpi.LaunchSpec{Nodes: nodes, Main: func(p *psmpi.Proc) error {
		rank := p.Rank()
		op, err := w.SubmitWriteTask(ioev.Start(p), rank, payloads[rank], p.Node())
		if err != nil {
			return err
		}
		ioev.Await(p, op)
		p.Barrier(p.World())
		if rank == 0 {
			if op, err = w.SubmitClose(ioev.Start(p), p.Node()); err != nil {
				return err
			}
			ioev.Await(p, op)
			tClose = p.Now()
		}
		p.Barrier(p.World())
		if rank == 3 {
			// Read back another rank's stream from a different node.
			r, op, err := sion.SubmitOpenRead(sys.FS, "/data/moments.sion", p.Node(), ioev.Start(p))
			if err != nil {
				return err
			}
			ioev.Await(p, op)
			if got, op, err = r.SubmitReadTask(ioev.Start(p), 7, p.Node()); err != nil {
				return err
			}
			ioev.Await(p, op)
			tRead = p.Now()
		}
		return nil
	}})
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, payloads[7]) {
		log.Fatal("verification failed: task 7 read back differs")
	}
	fmt.Printf("SIONlib: %d task streams → 1 container, %d MiB sealed at %v\n",
		ntasks, ntasks, tClose)
	fmt.Printf("read back task 7 (%d bytes) from another node, verified, at %v (job makespan %v)\n",
		len(got), tRead, res.Makespan)

	// --- BeeOND cache domain: async NVMe cache in front of the global FS ---
	cacheAsync := beegfs.NewCache(sys.FS, beegfs.CacheAsync, sys.NVMe)
	cacheSync := beegfs.NewCache(sys.FS, beegfs.CacheSync, sys.NVMe)
	burst := make([]byte, 128<<20) // a 128 MiB checkpoint burst

	var tAsync, tSync, tDrain vclock.Time
	_, err = sys.Runtime.Launch(psmpi.LaunchSpec{Nodes: nodes[:2], Main: func(p *psmpi.Proc) error {
		switch p.Rank() {
		case 0:
			if err := cacheAsync.Write(p, "/ckpt/async.bin", burst); err != nil {
				return err
			}
			tAsync = p.Now()
			cacheAsync.Drain(p)
			tDrain = p.Now()
		case 1:
			if err := cacheSync.Write(p, "/ckpt/sync.bin", burst); err != nil {
				return err
			}
			tSync = p.Now()
		}
		return nil
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BeeOND 128 MiB burst: async (to NVMe) %v vs sync (write-through) %v → %.1f× faster return\n",
		tAsync, tSync, tSync.Seconds()/tAsync.Seconds())
	fmt.Printf("async data safe in the global FS after drain at %v\n", tDrain)
}
