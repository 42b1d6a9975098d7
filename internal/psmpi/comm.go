package psmpi

// Comm is a communicator: an isolated message-matching context over a group
// of processes. An intra-communicator has only a local group; an
// inter-communicator (produced by Spawn) additionally has a remote group, and
// point-to-point ranks address the remote group, as in MPI.
type Comm struct {
	id     uint64
	local  []*Proc // the local group, indexed by rank
	remote []*Proc // remote group for inter-communicators, else nil

	// collSeq counts collective invocations per local rank (each rank only
	// touches its own slot). All ranks call the same collectives in the same
	// order, so the counters agree and tag blocks match without any
	// cross-rank coordination.
	collSeq []uint64

	// spawned is the handle of the latest Spawn over this communicator,
	// written by its root before the handle's broadcast and read by every
	// parent after it.
	spawned spawnHandle
}

// Size returns the number of processes in the local group.
func (c *Comm) Size() int { return len(c.local) }

// RemoteSize returns the number of processes in the remote group (0 for
// intra-communicators).
func (c *Comm) RemoteSize() int { return len(c.remote) }

// IsInter reports whether c is an inter-communicator.
func (c *Comm) IsInter() bool { return c.remote != nil }

// peers is the group that p2p ranks on c address: the remote group of an
// inter-communicator, the local group otherwise.
func (c *Comm) peers() []*Proc {
	if c.IsInter() {
		return c.remote
	}
	return c.local
}

// target resolves the destination proc for a p2p operation.
func (c *Comm) target(rank int) *Proc {
	grp := c.peers()
	if rank < 0 || rank >= len(grp) {
		panic("psmpi: destination rank out of range")
	}
	return grp[rank]
}

// checkSource panics unless src is a rank of c's peer group: a receive from
// outside it could never match.
func (c *Comm) checkSource(src int) {
	if src < 0 || src >= len(c.peers()) {
		panic("psmpi: source rank out of range")
	}
}
