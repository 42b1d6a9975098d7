// Package fabric models the EXTOLL Tourmalet A3 interconnect of the DEEP-ER
// prototype: one uniform 100 Gbit/s fabric spanning Cluster and Booster
// (§II-B of the paper), with per-endpoint CPU costs that reproduce the
// measured MPI latencies (1.0 µs CN-CN, 1.8 µs BN-BN) and the Fig. 3
// bandwidth/latency curves.
//
// Two transfer protocols are modelled, mirroring ParaStation MPI on EXTOLL:
//
//   - Eager: small messages are copied by the sending CPU into the NIC and by
//     the receiving CPU out of it. Cost is dominated by per-endpoint overhead
//     plus a per-byte CPU copy term — so the slow KNL core makes Booster
//     endpoints slower, exactly the asymmetry Fig. 3 shows at small/mid sizes.
//   - Rendezvous: large messages handshake (RTS/CTS) and then move by RDMA at
//     link speed with no per-byte CPU cost, so all node-type pairs converge
//     to the same fabric-limited bandwidth, as Fig. 3 shows for large sizes.
//
// Each node has an injection and an ejection link modelled as shared
// resources (vclock.SharedClock), which serialises overlapping transfers and
// yields contention behaviour for free. Every transfer books the sender's
// injection link; only rendezvous transfers book the receiver's ejection
// link — an eager message is complete when it reaches the receiver's NIC.
// Link clocks are execution-kernel resources: the discrete-event kernel
// (internal/engine) runs one simulated task at a time, so reservations
// arrive pre-serialised in virtual-time order and the model needs no
// locking and no ownership discipline.
package fabric

import (
	"fmt"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// params holds the parameters of the fabric model.
type params struct {
	// WireLatency is the one-way switch+cable latency of the fabric,
	// excluding endpoint CPU costs. Tourmalet: ~0.2 µs per hop.
	WireLatency vclock.Time
	// EagerThreshold is the largest message size (bytes) sent eagerly;
	// larger messages use the rendezvous protocol.
	EagerThreshold int
	// LinkGBs is the raw link bandwidth in GB/s (100 Gbit/s = 12.5 GB/s).
	LinkGBs float64
	// RDMAEfficiency scales LinkGBs to the achievable RDMA payload bandwidth
	// (protocol headers, packetisation). ~0.88 for Tourmalet.
	RDMAEfficiency float64
	// RDMASetup is the initiator-side cost to post an RDMA descriptor.
	RDMASetup vclock.Time
}

// prototype holds the DEEP-ER prototype fabric parameters. It is a variable,
// not a set of constants: Go evaluates constant expressions exactly, so a
// product such as LinkGBs*RDMAEfficiency*1e9 would round differently from
// the float64 arithmetic the goldens were recorded with.
var prototype = params{
	WireLatency:    0.2 * vclock.Microsecond,
	EagerThreshold: 16 << 10,
	LinkGBs:        12.5,
	RDMAEfficiency: 0.88,
	RDMASetup:      0.3 * vclock.Microsecond,
}

// Network is the timed fabric joining all nodes of a machine.System.
type Network struct {
	cfg    params
	inject []*vclock.SharedClock // per-node injection link occupancy
	eject  []*vclock.SharedClock // per-node ejection link occupancy
}

// New builds a network over the given system with the DEEP-ER prototype
// parameters.
func New(sys *machine.System) *Network {
	n := &Network{cfg: prototype}
	for range sys.Nodes() {
		n.inject = append(n.inject, vclock.NewSharedClock())
		n.eject = append(n.eject, vclock.NewSharedClock())
	}
	return n
}

// sendOverhead is the CPU time node a spends initiating a message: software
// stack, doorbell, completion handling. Calibrated so that
// o_send + wire + o_recv reproduces Table I's MPI latencies
// (Haswell: 0.4+0.2+0.4 = 1.0 µs; KNL: 0.8+0.2+0.8 = 1.8 µs).
func sendOverhead(spec machine.NodeSpec) vclock.Time {
	switch spec.Arch {
	case machine.Haswell:
		return 0.4 * vclock.Microsecond
	case machine.KNL:
		return 0.8 * vclock.Microsecond
	default:
		return 0.6 * vclock.Microsecond
	}
}

// recvOverhead is the CPU time the receiver spends completing a match.
// Symmetric with sendOverhead on this fabric.
func recvOverhead(spec machine.NodeSpec) vclock.Time { return sendOverhead(spec) }

// Eager reports whether a message of the given size uses the eager protocol.
func (n *Network) Eager(size int) bool { return size <= n.cfg.EagerThreshold }

// SendOverheadOf returns the CPU time a node spends issuing a message (the
// part of the latency the sending process itself pays before continuing).
func (n *Network) SendOverheadOf(node *machine.Node) vclock.Time {
	return sendOverhead(node.Spec)
}

// Link determinism: reservations are booked at the modelled instant they
// happen on the hardware — injection at send/issue time in the sender's
// program order, a rendezvous transfer's ejection at receive-completion
// time in the receiver's program order — and the execution kernel
// schedules those program points in virtual-time order, one task at a time.
// Determinism is therefore by construction; the per-link ownership protocol
// that used to enforce it under free-running rank goroutines is gone. See
// DESIGN.md decision 1.

// EagerSend models the sender side of an eager transfer of size bytes that
// becomes ready (sender CPU available) at ready. It returns:
//
//	senderFree — when the sending CPU may continue (eager sends are buffered)
//	nicArrival — when the full message is available at the destination NIC;
//	             an eager message books no ejection-link interval, so this
//	             is its arrival, and the receiver's copy-out follows it
//	             (EagerRecvCost)
func (n *Network) EagerSend(src, dst *machine.Node, size int, ready vclock.Time) (senderFree, nicArrival vclock.Time) {
	if size < 0 {
		panic(fmt.Sprintf("fabric: negative size %d", size))
	}
	if !n.Eager(size) {
		panic(fmt.Sprintf("fabric: EagerSend size %d above threshold %d", size, n.cfg.EagerThreshold))
	}
	copyIn := vclock.Time(float64(size) / (src.Spec.CopyGBs() * 1e9))
	senderFree = ready + sendOverhead(src.Spec) + copyIn
	if src.ID == dst.ID {
		// Shared-memory path: no links, receiver copy costed at match time.
		return senderFree, senderFree
	}
	wireTime := vclock.Time(float64(size) / (n.cfg.LinkGBs * 1e9))
	_, injEnd := n.inject[src.ID].Reserve(senderFree, wireTime)
	nicArrival = injEnd + n.cfg.WireLatency
	return senderFree, nicArrival
}

// EagerRecvCost is the receiver-side CPU cost to complete an eager message of
// the given size: match overhead plus copy-out at the receiver's CPU rate.
func (n *Network) EagerRecvCost(dst *machine.Node, size int) vclock.Time {
	copyOut := vclock.Time(float64(size) / (dst.Spec.CopyGBs() * 1e9))
	return recvOverhead(dst.Spec) + copyOut
}

// Rendezvous (RTS/CTS + RDMA) transfers are timed in three phases because
// the hardware books its resources at three distinct moments — not as a
// concurrency protocol:
//
//	RendezvousIssue — at issue time: posts the RTS and books the injection
//	                  link at its earliest slot (the NIC queues the DMA
//	                  descriptor when the send is issued).
//	RendezvousMatch — at match time: pure arithmetic over the envelope,
//	                  yields the sender-completion (DMA done, buffer
//	                  reusable).
//	RendezvousEject — at receive-completion time: books the ejection link
//	                  and yields the effective arrival.
//
// The combined Rendezvous below chains all three for single-caller contexts
// (buddy checkpoint copies, microbenchmarks, tests).

// RendezvousIssue books the sender's injection link for the DMA at its
// earliest possible slot (receiver already posted — the overlap-optimised
// common case; a late receiver only shifts the transfer via RendezvousMatch).
// It returns the RTS arrival time at the receiver's NIC and the booked
// injection end. Called at send-issue time.
func (n *Network) RendezvousIssue(src, dst *machine.Node, size int, senderReady vclock.Time) (rts, injEnd vclock.Time) {
	if size < 0 {
		panic(fmt.Sprintf("fabric: negative size %d", size))
	}
	if src.ID == dst.ID {
		// Shared memory: no links; rts is when the sending CPU is ready.
		return senderReady + sendOverhead(src.Spec), 0
	}
	rts = senderReady + sendOverhead(src.Spec) + n.cfg.WireLatency
	dmaTime := vclock.Time(float64(size) / (n.cfg.LinkGBs * n.cfg.RDMAEfficiency * 1e9))
	earliest := rts + n.cfg.WireLatency + n.cfg.RDMASetup // receive already posted: CTS turnaround + descriptor
	_, injEnd = n.inject[src.ID].Reserve(earliest, dmaTime)
	return rts, injEnd
}

// RendezvousMatch computes when the sender's transfer completes (DMA done,
// buffer reusable) for a message issued at (rts, injEnd) and matched by a
// receive posted at recvPosted. Pure arithmetic over the arguments.
func (n *Network) RendezvousMatch(src, dst *machine.Node, size int, rts, injEnd, recvPosted vclock.Time) (senderDone vclock.Time) {
	if src.ID == dst.ID {
		// Shared memory: single copy by the source CPU once both are ready.
		meet := vclock.Max(rts, recvPosted)
		return meet + vclock.Time(float64(size)/(src.Spec.CopyGBs()*1e9))
	}
	// Transfer may start only after the receive is posted; CTS travels back;
	// then RDMA streams the payload (no earlier than the booked link slot).
	meet := vclock.Max(rts, recvPosted+recvOverhead(dst.Spec))
	dmaReady := meet + n.cfg.WireLatency + n.cfg.RDMASetup
	dmaTime := vclock.Time(float64(size) / (n.cfg.LinkGBs * n.cfg.RDMAEfficiency * 1e9))
	return vclock.Max(injEnd, dmaReady+dmaTime)
}

// RendezvousEject serialises the transfer on the receiver's ejection link
// and returns the effective arrival. Called at receive-completion time.
// Intra-node transfers skip it.
func (n *Network) RendezvousEject(dst *machine.Node, size int, senderDone vclock.Time) vclock.Time {
	dmaTime := vclock.Time(float64(size) / (n.cfg.LinkGBs * n.cfg.RDMAEfficiency * 1e9))
	_, ejEnd := n.eject[dst.ID].Reserve(senderDone+n.cfg.WireLatency-dmaTime, dmaTime)
	return vclock.Max(senderDone+n.cfg.WireLatency, ejEnd)
}

// Rendezvous models a whole rendezvous transfer in one call (single-caller
// contexts: buddy copies, microbenchmarks).
//
//	senderReady — sender CPU time when the send is issued
//	recvPosted  — receiver CPU time when the matching receive was posted
//
// Returns when the sender's transfer completes (DMA done, buffer reusable)
// and when the data has fully arrived at the receiver.
func (n *Network) Rendezvous(src, dst *machine.Node, size int, senderReady, recvPosted vclock.Time) (senderDone, arrival vclock.Time) {
	rts, injEnd := n.RendezvousIssue(src, dst, size, senderReady)
	senderDone = n.RendezvousMatch(src, dst, size, rts, injEnd, recvPosted)
	if src.ID == dst.ID {
		return senderDone, senderDone
	}
	arrival = n.RendezvousEject(dst, size, senderDone)
	return senderDone, arrival
}

// RDMARead models a one-sided read of size bytes from a remote memory region
// (used by the network-attached memory, which has no CPU at all on the remote
// side). It returns the completion time at the initiator.
func (n *Network) RDMARead(initiator *machine.Node, remote int, size int, ready vclock.Time) vclock.Time {
	dmaTime := vclock.Time(float64(size) / (n.cfg.LinkGBs * n.cfg.RDMAEfficiency * 1e9))
	req := ready + n.cfg.RDMASetup + n.cfg.WireLatency // request reaches remote NIC
	_, injEnd := n.inject[remote].Reserve(req, dmaTime)
	return injEnd + n.cfg.WireLatency
}

// RDMAWrite models a one-sided write of size bytes into a remote memory
// region. It returns the completion (ack received) time at the initiator.
func (n *Network) RDMAWrite(initiator *machine.Node, remote int, size int, ready vclock.Time) vclock.Time {
	dmaTime := vclock.Time(float64(size) / (n.cfg.LinkGBs * n.cfg.RDMAEfficiency * 1e9))
	_, injEnd := n.inject[initiator.ID].Reserve(ready+n.cfg.RDMASetup, dmaTime)
	return injEnd + 2*n.cfg.WireLatency // data out + ack back
}

// AttachEndpoint registers an additional fabric endpoint (e.g. a NAM device
// or a storage server NIC) and returns its endpoint id, usable as the remote
// id of RDMA operations.
func (n *Network) AttachEndpoint() int {
	id := len(n.inject)
	n.inject = append(n.inject, vclock.NewSharedClock())
	n.eject = append(n.eject, vclock.NewSharedClock())
	return id
}
