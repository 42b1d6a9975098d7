package psmpi

import (
	"fmt"

	"clusterbooster/internal/engine"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// envelope is a message in flight. Envelopes are pooled per launch: refs
// counts the parties that still read the envelope (the receiver; plus the
// sender for rendezvous messages, which reads the completion time resolved
// at match), and the last one returns it to the free list. The kernel's
// serialisation makes the pool safe without any synchronisation.
type envelope struct {
	commID    uint64
	src       int // sender's rank in its group
	tag       int
	body      []float64 // nil for a sizes-only message
	bytes     int
	refs      int32
	eager     bool
	interComm bool        // sent on an inter-communicator (staged path)
	arrival   vclock.Time // eager only: when data is at the destination NIC

	// Rendezvous handshake state. The fabric times the transfer in three
	// phases (issue, match, eject) so each booking happens at the modelled
	// instant it occurs on the hardware; the execution kernel serialises the
	// calls, so any task may resolve any phase.
	srcNode      *machine.Node // needed to time the transfer at match time
	rts          vclock.Time   // RTS at the receiver NIC (RendezvousIssue)
	injEnd       vclock.Time   // booked injection-link end (RendezvousIssue)
	dmaEnd       vclock.Time   // sender completion, resolved at match
	dmaDone      bool          // dmaEnd is valid
	senderWaiter *engine.Task  // sender parked awaiting the match, if any
}

// postedRecv is a receive posted before its message arrived.
type postedRecv struct {
	commID uint64
	src    int
	tag    int
	posted vclock.Time
	env    *envelope    // set when matched
	waiter *engine.Task // receiver parked on this receive, if any
}

func (pr *postedRecv) matches(e *envelope) bool {
	return pr.commID == e.commID && pr.src == e.src && pr.tag == e.tag
}

// mailbox holds a rank's unexpected-message queue and posted-receive queue,
// with standard MPI matching precedence. The execution kernel runs exactly
// one rank at a time, so the mailbox needs no locking: deliver (called by
// the sending rank) and the receive paths (called by the owning rank) can
// never overlap.
type mailbox struct {
	unexpected []*envelope
	posted     []*postedRecv
	// first backs unexpected until it outgrows it. Over the four
	// experiments of the scale benchmark, 99.7% of the 81,900 mailboxes
	// queue three unexpected messages at some point and two thirds never
	// queue more. Four inline slots cut the queue's growth allocations
	// there from 296,800 to 51,366, and its bytes, these slots included,
	// from 9.0 to 7.1 MiB.
	first [4]*envelope
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.unexpected = mb.first[:0]
	return mb
}

// deliver is called from the sender's task. It matches the envelope against
// posted receives (in post order) or queues it as unexpected. For rendezvous
// messages matched against a posted receive, the sender's completion is
// resolved here (pure arithmetic — the receive-post time is already known
// and no link state is touched), so a blocking sender never waits for the
// receiver to reach its own completion call. Ejection-link serialisation and
// the receiver-side arrival happen later, in the receiver's task.
func (mb *mailbox) deliver(e *envelope, dst *Proc) {
	for _, pr := range mb.posted {
		if pr.env == nil && pr.matches(e) {
			completeMatch(pr, e, dst)
			return
		}
	}
	mb.unexpected = append(mb.unexpected, e)
}

// completeMatch resolves a (posted receive, envelope) pair: for rendezvous
// messages it computes the sender's completion time, and it wakes whichever
// side is parked on the outcome — the sender blocked in waitSendEnv at its
// transfer completion, the receiver blocked in Wait at the message's
// arrival estimate.
func completeMatch(pr *postedRecv, e *envelope, dst *Proc) {
	pr.env = e
	if !e.eager {
		commitSenderDone(e, dst.rt.net.RendezvousMatch(
			e.srcNode, dst.node, e.bytes, e.rts, e.injEnd, pr.posted))
	}
	if w := pr.waiter; w != nil {
		pr.waiter = nil
		w.WakeAt(recvWake(pr, e))
	}
}

// commitSenderDone publishes a rendezvous transfer's completion, resolved
// at match, and wakes the sender if it is parked awaiting it.
func commitSenderDone(e *envelope, dmaEnd vclock.Time) {
	e.dmaEnd = dmaEnd
	e.dmaDone = true
	if w := e.senderWaiter; w != nil {
		e.senderWaiter = nil
		w.WakeAt(dmaEnd)
	}
}

// recvWake is the virtual time at which a matched receive's waiter resumes:
// the message's arrival estimate, no earlier than the receive was posted.
// (The receiver recomputes the exact arrival — a rendezvous transfer's
// ejection-link serialisation included — when it completes the receive; the
// wakeup time only orders the resume among the kernel's events.)
func recvWake(pr *postedRecv, e *envelope) vclock.Time {
	if e.eager {
		return vclock.Max(pr.posted, e.arrival)
	}
	return vclock.Max(pr.posted, e.dmaEnd)
}

// takeUnexpected removes and returns the first unexpected envelope matching
// (commID, src, tag), or nil.
func (mb *mailbox) takeUnexpected(commID uint64, src, tag int) *envelope {
	for i, e := range mb.unexpected {
		if e.commID == commID && e.src == src && e.tag == tag {
			mb.unexpected = append(mb.unexpected[:i], mb.unexpected[i+1:]...)
			return e
		}
	}
	return nil
}

// Request is a handle for a non-blocking operation, completed by Wait. A
// request with no posted receive is a send; a send with no envelope is the
// born-done shared request of eager sends.
type Request struct {
	p *Proc

	// send-side
	env *envelope // rendezvous/synchronous sends: handshake state

	// recv-side
	pr *postedRecv
	mb *mailbox // the queue holding pr; nil if pr matched when posted
}

// sendMode selects the send protocol.
type sendMode int

const (
	modeStandard sendMode = iota // eager below threshold, rendezvous above
	modeSync                     // always rendezvous (MPI_Issend)
)

// send posts a user send of either mode; Wait completes it.
func (p *Proc) send(c *Comm, dst, tag int, body []float64, bytes int, mode sendMode) *Request {
	if tag < 0 || tag >= MaxUserTag {
		// Internal callers use sendTagged with reserved tags.
		panic(fmt.Sprintf("psmpi: tag %d out of user range [0,%d)", tag, MaxUserTag))
	}
	return p.sendTagged(c, dst, tag, body, bytes, mode)
}

func (p *Proc) sendTagged(c *Comm, dst, tag int, body []float64, bytes int, mode sendMode) *Request {
	target := c.target(dst)
	// Inter-communicator traffic is staged through the MPI layer on the
	// sending side (see Config.InterCommStagingGBs).
	if c.IsInter() && bytes > 0 {
		p.clock.Advance(vclock.Time(float64(bytes) / (p.rt.cfg.InterCommStagingGBs * 1e9)))
	}
	begin := p.clock.Now()

	e := p.newEnv()
	*e = envelope{
		commID:    c.id,
		src:       p.rankIn(c),
		tag:       tag,
		body:      body,
		bytes:     bytes,
		refs:      1, // the receiver
		srcNode:   p.node,
		interComm: c.IsInter(),
	}

	if mode == modeStandard && p.rt.net.Eager(bytes) {
		senderFree, nicArrival := p.rt.net.EagerSend(p.node, target.node, bytes, begin)
		e.eager = true
		e.arrival = nicArrival
		target.mbox.deliver(e, target)
		// The sending CPU is busy until the NIC has the data, then free.
		p.clock.AdvanceTo(senderFree)
		// Eager sends complete locally: the request is born done, and since a
		// done send request carries no state, every eager send of a rank
		// shares one request struct instead of allocating.
		return &p.eagerDone
	}
	e.refs++ // the sender reads the matched completion time
	e.rts, e.injEnd = p.rt.net.RendezvousIssue(p.node, target.node, bytes, begin)
	target.mbox.deliver(e, target)
	// Rendezvous: the sender's CPU pays the issue overhead (posting the RTS)
	// and may then continue; completion arrives through the handshake.
	p.clock.Advance(p.rt.net.SendOverheadOf(p.node))
	req := p.newReq()
	*req = Request{p: p, env: e}
	return req
}

// waitSendEnv blocks until a rendezvous send's transfer completes. If the
// match has not happened yet, the sender parks in the kernel; the receiver's
// match resolves the completion time and wakes it exactly then.
func (p *Proc) waitSendEnv(e *envelope) {
	if !e.dmaDone {
		e.senderWaiter = p.task
		p.task.Park()
	}
	p.clock.AdvanceTo(e.dmaEnd)
	p.releaseEnv(e)
}

// Send is a blocking standard-mode send (MPI_Send), Isend plus Wait with an
// explicit wire size: it returns once the send completes locally —
// immediately after injection for eager messages, after the transfer for
// rendezvous messages. The message is priced by bytes alone and buf is
// never read, so buf may be nil for a sizes-only message (Fig. 3's
// ping-pong); the matching receive then returns nil. A non-nil buf is
// handed over as Isend's is.
func (p *Proc) Send(c *Comm, dst, tag int, buf []float64, bytes int) {
	p.Wait(p.send(c, dst, tag, buf, bytes, modeStandard))
}

// Isend is a non-blocking standard-mode send (MPI_Isend) of buf, 8 bytes
// per element on the wire. The buffer travels by reference and ownership
// goes with it: the sender must not touch it again, and the receiver, its
// last reader, returns it with PutF64 once it has read it. With buffers
// from GetF64, a steady stream of messages allocates nothing.
func (p *Proc) Isend(c *Comm, dst, tag int, buf []float64) *Request {
	return p.send(c, dst, tag, buf, 8*len(buf), modeStandard)
}

// Issend is a non-blocking synchronous send (MPI_Issend) with Isend's
// ownership contract: the request completes only once the matching receive
// is posted. xPic uses it for the Cluster↔Booster moment/field exchange
// (Listing 4 of the paper).
func (p *Proc) Issend(c *Comm, dst, tag int, buf []float64) *Request {
	return p.send(c, dst, tag, buf, 8*len(buf), modeSync)
}

// removePosted drops a completed posted receive.
func (mb *mailbox) removePosted(pr *postedRecv) {
	for i, q := range mb.posted {
		if q == pr {
			mb.posted = append(mb.posted[:i], mb.posted[i+1:]...)
			return
		}
	}
}

// completeRecv times a matched receive on this rank. An eager message is
// complete once it has reached this rank's NIC and the CPU has copied it
// out; a rendezvous transfer lands through this rank's ejection link.
func (p *Proc) completeRecv(e *envelope) {
	if e.eager {
		p.clock.AdvanceTo(e.arrival)
		p.clock.Advance(p.rt.net.EagerRecvCost(p.node, e.bytes))
	} else {
		p.clock.AdvanceTo(p.rendezvousArrival(e))
	}
	p.stageInterRecv(e)
}

// rendezvousArrival serialises a matched rendezvous transfer on this rank's
// ejection link. e.dmaEnd was resolved at match, before this rank resumed,
// so reading it here is safe.
func (p *Proc) rendezvousArrival(e *envelope) vclock.Time {
	if e.srcNode.ID == p.node.ID {
		return e.dmaEnd
	}
	return p.rt.net.RendezvousEject(p.node, e.bytes, e.dmaEnd)
}

// stageInterRecv charges the receiver-side staging copy of
// inter-communicator messages (the non-RDMA spawn-intercomm path).
func (p *Proc) stageInterRecv(e *envelope) {
	if e.interComm && e.bytes > 0 {
		p.clock.Advance(vclock.Time(float64(e.bytes) / (p.rt.cfg.InterCommStagingGBs * 1e9)))
	}
}

// Recv is a blocking receive (MPI_Recv) of the next message from rank src
// with the given tag: Irecv plus Wait. It returns the body, which now
// belongs to the caller (see Isend).
func (p *Proc) Recv(c *Comm, src, tag int) []float64 {
	return p.Wait(p.Irecv(c, src, tag))
}

// newPR takes a posting record from the rank's free list (or allocates one);
// Wait returns completed records to it.
func (p *Proc) newPR() *postedRecv {
	if n := len(p.prFree); n > 0 {
		pr := p.prFree[n-1]
		p.prFree[n-1] = nil
		p.prFree = p.prFree[:n-1]
		return pr
	}
	return &postedRecv{}
}

// newReq takes a request from the rank's free list (or allocates one); Wait
// returns it there.
func (p *Proc) newReq() *Request {
	if n := len(p.reqFree); n > 0 {
		req := p.reqFree[n-1]
		p.reqFree[n-1] = nil
		p.reqFree = p.reqFree[:n-1]
		return req
	}
	return &Request{}
}

// freeReq recycles a completed request. The shared born-done request of
// eager sends stays with its rank.
func (p *Proc) freeReq(req *Request) {
	if req == &p.eagerDone {
		return
	}
	*req = Request{}
	p.reqFree = append(p.reqFree, req)
}

// Irecv posts a non-blocking receive (MPI_Irecv); complete it with Wait. A
// message already queued matches at once, priced as if the receive had
// waited for it from now on; otherwise the posting queues until a send
// matches it.
func (p *Proc) Irecv(c *Comm, src, tag int) *Request {
	c.checkSource(src)
	mb := p.mbox
	pr := p.newPR()
	*pr = postedRecv{commID: c.id, src: src, tag: tag, posted: p.clock.Now()}
	req := p.newReq()
	*req = Request{p: p, pr: pr}
	if e := mb.takeUnexpected(c.id, src, tag); e != nil {
		completeMatch(pr, e, p)
		return req
	}
	mb.posted = append(mb.posted, pr)
	req.mb = mb
	return req
}

// Wait blocks until the request completes (MPI_Wait) and returns a receive's
// body (nil for sends), which now belongs to the caller (see Isend). As
// MPI_Wait sets the handle to MPI_REQUEST_NULL, Wait frees the request: it
// must not be used again.
func (p *Proc) Wait(req *Request) []float64 {
	if req.p != p {
		panic("psmpi: waiting on another rank's request")
	}
	if req.pr == nil { // a send
		if req.env != nil {
			p.waitSendEnv(req.env)
		}
		p.freeReq(req)
		return nil
	}
	pr := req.pr
	if pr.env == nil { // not matched yet
		pr.waiter = p.task
		p.task.Park()
	}
	if req.mb != nil {
		req.mb.removePosted(pr)
	}
	e := pr.env
	p.completeRecv(e)
	body := e.body
	*pr = postedRecv{}
	p.prFree = append(p.prFree, pr)
	p.releaseEnv(e)
	p.freeReq(req)
	return body
}

// Waitall completes all requests (MPI_Waitall).
func (p *Proc) Waitall(reqs ...*Request) {
	for _, r := range reqs {
		if r != nil {
			p.Wait(r)
		}
	}
}
