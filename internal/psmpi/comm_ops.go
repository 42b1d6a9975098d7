package psmpi

import (
	"fmt"
	"sort"
)

// Communicator management and convenience point-to-point operations beyond
// the core set: Split, Dup, Sendrecv, Probe — the parts of MPI the DEEP
// applications and tools layer on top of the global communicator.

// splitKey is the (color, key) pair gathered from every rank during Split.
type splitKey struct {
	color, key, rank int
}

// Split partitions the communicator by color, ordering ranks by key (ties by
// old rank), exactly like MPI_Comm_split. Every rank receives the
// sub-communicator of its color; color < 0 (like MPI_UNDEFINED) yields nil.
// Collective over c.
func (p *Proc) Split(c *Comm, color, key int) *Comm {
	if c.IsInter() {
		panic("psmpi: Split of an inter-communicator is not supported")
	}
	p.Stats.Collectives++
	me := p.rankIn(c)
	n := c.Size()

	// Gather all (color, key) pairs via the existing allgather.
	flat := p.AllgatherF64(c, []float64{float64(color), float64(key)})
	keys := make([]splitKey, n)
	for r := 0; r < n; r++ {
		keys[r] = splitKey{color: int(flat[2*r]), key: int(flat[2*r+1]), rank: r}
	}

	if color < 0 {
		return nil
	}
	// Deterministic membership: all ranks compute the same grouping; rank 0
	// of each group constructs the communicator object, and the others
	// attach to it through a shared registry keyed by (comm id, collective
	// sequence, color). Since every member computes identical state, the
	// first to arrive creates it.
	var members []splitKey
	for _, k := range keys {
		if k.color == color {
			members = append(members, k)
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].rank < members[j].rank
	})

	newComm := p.rt.splitComm(c, c.collSeq[me], color, members)
	for newRank, m := range members {
		if m.rank == me {
			p.commRank[newComm.id] = newRank
		}
	}
	return newComm
}

// splitComm returns the sub-communicator for one (parent, seq, color) group,
// creating it on first request. All members compute identical membership, so
// whichever rank arrives first builds the authoritative object.
func (rt *Runtime) splitComm(parent *Comm, seq uint64, color int, members []splitKey) *Comm {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.splitCache == nil {
		rt.splitCache = map[string]*Comm{}
	}
	cacheKey := fmt.Sprintf("%d/%d/%d", parent.id, seq, color)
	if c, ok := rt.splitCache[cacheKey]; ok {
		return c
	}
	rt.commID++
	c := &Comm{rt: rt, id: rt.commID}
	for _, m := range members {
		c.local = append(c.local, parent.local[m.rank])
	}
	c.collSeq = make([]uint64, len(c.local))
	rt.splitCache[cacheKey] = c
	return c
}

// Dup duplicates the communicator: same group, fresh matching context
// (MPI_Comm_dup). Collective over c.
func (p *Proc) Dup(c *Comm) *Comm {
	if c.IsInter() {
		panic("psmpi: Dup of an inter-communicator is not supported")
	}
	return p.Split(c, 0, p.rankIn(c))
}

// Sendrecv performs a combined send and receive (MPI_Sendrecv), safe against
// the cyclic-exchange deadlock.
func (p *Proc) Sendrecv(c *Comm, dst, sendTag int, data any, bytes int, src, recvTag int) (any, Status) {
	req := p.Isend(c, dst, sendTag, data, bytes)
	got, st := p.Recv(c, src, recvTag)
	p.Wait(req)
	return got, st
}

// Probe blocks until a matching message is available and returns its status
// without receiving it (MPI_Probe). The message stays queued. While no match
// is queued the rank parks in the kernel; every newly delivered unexpected
// message re-runs the scan.
func (p *Proc) Probe(c *Comm, src, tag int) Status {
	mb := p.mbox
	probe := postedRecv{commID: c.id, src: src, tag: tag}
	for {
		for _, e := range mb.unexpected {
			if probe.matches(e) {
				return Status{Source: e.src, Tag: e.tag, Bytes: e.bytes}
			}
		}
		mb.probers = append(mb.probers, p)
		p.task.Park()
	}
}

// Iprobe checks for a matching message without blocking (MPI_Iprobe).
func (p *Proc) Iprobe(c *Comm, src, tag int) (Status, bool) {
	probe := postedRecv{commID: c.id, src: src, tag: tag}
	for _, e := range p.mbox.unexpected {
		if probe.matches(e) {
			return Status{Source: e.src, Tag: e.tag, Bytes: e.bytes}, true
		}
	}
	return Status{}, false
}
