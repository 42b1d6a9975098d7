package psmpi

import (
	"fmt"

	"clusterbooster/internal/engine"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// payload is a message body with a tagged fast lane: []float64 — the
// platform's dominant traffic (halo rows, moments, reduction accumulators,
// checkpoint state) — travels in its own field, so the send path never boxes
// a slice header into an interface (one heap allocation per send through
// PR 4, the single largest allocation source of the kernel benchmarks).
// Everything else rides in val. pooled marks f64 as a launch-pool buffer
// whose sole consumer may recycle it after copying out.
type payload struct {
	f64    []float64
	val    any
	pooled bool
}

// value returns the body for the untyped receive APIs. Boxing happens here,
// on demand, instead of on every send.
func (pl payload) value() any {
	if pl.f64 != nil {
		return pl.f64
	}
	return pl.val
}

// slice returns the body as a []float64 for the typed receive APIs.
func (pl payload) slice() []float64 {
	if pl.f64 != nil {
		return pl.f64
	}
	if pl.val == nil {
		return nil
	}
	return pl.val.([]float64)
}

// envelope is a message in flight. Envelopes are pooled per launch: refs
// counts the parties that still read the envelope (the receiver; plus the
// sender for rendezvous messages, which reads the completion time resolved
// at match), and the last one returns it to the free list. The kernel's
// serialisation makes the pool safe without any synchronisation.
type envelope struct {
	commID    uint64
	src       int // sender's rank in its group
	tag       int
	pl        payload
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
	env    *envelope // set when matched
	done   bool
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
// side is parked on the outcome — the sender blocked in waitSend at its
// transfer completion, the receiver blocked in Recv/Wait at the message's
// arrival estimate.
func completeMatch(pr *postedRecv, e *envelope, dst *Proc) {
	pr.env = e
	if !e.eager {
		commitSenderDone(e, dst.rt.net.RendezvousMatch(
			e.srcNode, dst.node, e.bytes, e.rts, e.injEnd, pr.posted))
	}
	pr.done = true
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
// (The receiver recomputes the exact arrival — ejection-link serialisation
// included — when it completes the receive; the wakeup time only orders the
// resume among the kernel's events.)
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

// Request is a handle for a non-blocking operation, completed by Wait.
type Request struct {
	p    *Proc
	done bool // born done: the shared request of eager sends

	// send-side
	isSend bool
	env    *envelope // rendezvous/synchronous sends: handshake state

	// recv-side
	pr *postedRecv
	mb *mailbox
}

// sendMode selects the send protocol.
type sendMode int

const (
	modeStandard sendMode = iota // eager below threshold, rendezvous above
	modeSync                     // always rendezvous (MPI_Issend)
)

// send implements all send flavours. Blocking sends wait for local completion
// (standard mode: buffer reusable; synchronous mode: matched), non-blocking
// sends return a Request.
func (p *Proc) send(c *Comm, dst, tag int, pl payload, bytes int, mode sendMode, blocking bool) *Request {
	if tag < 0 || tag >= MaxUserTag {
		// Internal callers use sendTagged with reserved tags.
		panic(fmt.Sprintf("psmpi: tag %d out of user range [0,%d)", tag, MaxUserTag))
	}
	return p.sendTagged(c, dst, tag, pl, bytes, mode, blocking)
}

func (p *Proc) sendTagged(c *Comm, dst, tag int, pl payload, bytes int, mode sendMode, blocking bool) *Request {
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
		pl:        pl,
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
		if blocking {
			return nil
		}
		// Eager sends complete locally: the request is born done, and since a
		// done send request carries no state, every eager non-blocking send of
		// a rank shares one request struct instead of allocating.
		return &p.eagerDone
	}
	e.refs++ // the sender reads the matched completion time
	e.rts, e.injEnd = p.rt.net.RendezvousIssue(p.node, target.node, bytes, begin)
	target.mbox.deliver(e, target)
	// Rendezvous: the sender's CPU pays the issue overhead (posting the RTS)
	// and may then continue; completion arrives through the handshake.
	p.clock.Advance(p.rt.net.SendOverheadOf(p.node))
	if blocking {
		p.waitSendEnv(e)
		return nil
	}
	req := p.newReq()
	*req = Request{p: p, isSend: true, env: e}
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

// Send is a blocking standard-mode send (MPI_Send): it returns when the send
// buffer is reusable — immediately after injection for eager messages, after
// the transfer for rendezvous messages. The message is priced by bytes alone
// and data is never read, so data may be nil for a sizes-only message; the
// matching Recv then returns a nil body.
func (p *Proc) Send(c *Comm, dst, tag int, data any, bytes int) {
	p.send(c, dst, tag, payload{val: data}, bytes, modeStandard, true)
}

// IsendF64Pooled is a non-blocking standard-mode send (MPI_Isend) of a
// buffer taken from GetF64 and filled by the caller. The buffer travels by
// reference and unboxed, and ownership goes with it: the sender must not
// touch it again, and the receiver, its last reader, returns it with PutF64
// (RecvF64Pooled, WaitF64). A steady stream of such messages allocates
// nothing.
func (p *Proc) IsendF64Pooled(c *Comm, dst, tag int, buf []float64) *Request {
	return p.send(c, dst, tag, payload{f64: buf, pooled: true}, 8*len(buf), modeStandard, false)
}

// IssendF64Pooled is a non-blocking synchronous send (MPI_Issend) with the
// ownership contract of IsendF64Pooled: the request completes only once the
// matching receive is posted. xPic uses it for the Cluster↔Booster
// moment/field exchange (Listing 4 of the paper).
func (p *Proc) IssendF64Pooled(c *Comm, dst, tag int, buf []float64) *Request {
	return p.send(c, dst, tag, payload{f64: buf, pooled: true}, 8*len(buf), modeSync, false)
}

// recvCommon matches a message, timing the receive. Returns the envelope.
func (p *Proc) recvCommon(c *Comm, src, tag int) *envelope {
	c.checkSource(src)
	mb := p.mbox
	if e := mb.takeUnexpected(c.id, src, tag); e != nil {
		p.completeRecvUnexpected(e)
		return e
	}
	// A blocking receive's posting lives only until this call returns, so it
	// reuses a per-rank scratch record instead of allocating.
	pr := &p.recvScratch
	*pr = postedRecv{commID: c.id, src: src, tag: tag, posted: p.clock.Now(), waiter: p.task}
	mb.posted = append(mb.posted, pr)
	p.task.Park()
	mb.removePosted(pr)
	p.completeRecvPosted(pr)
	return pr.env
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

// completeRecvUnexpected times a receive that found its message already
// queued (sender was first).
func (p *Proc) completeRecvUnexpected(e *envelope) {
	if e.eager {
		p.clock.AdvanceTo(p.eagerArrival(e))
		p.clock.Advance(p.rt.net.EagerRecvCost(p.node, e.bytes))
		p.stageInterRecv(e)
		return
	}
	commitSenderDone(e, p.rt.net.RendezvousMatch(
		e.srcNode, p.node, e.bytes, e.rts, e.injEnd, p.clock.Now()))
	p.clock.AdvanceTo(p.rendezvousArrival(e))
	p.stageInterRecv(e)
}

// completeRecvPosted times a receive whose posting preceded the message.
func (p *Proc) completeRecvPosted(pr *postedRecv) {
	e := pr.env
	if e.eager {
		p.clock.AdvanceTo(p.eagerArrival(e))
		p.clock.Advance(p.rt.net.EagerRecvCost(p.node, e.bytes))
		p.stageInterRecv(e)
		return
	}
	p.clock.AdvanceTo(p.rendezvousArrival(e))
	p.stageInterRecv(e)
}

// eagerArrival serialises an eager message on this rank's ejection link at
// receive-completion time (intra-node messages have no link to serialise on).
func (p *Proc) eagerArrival(e *envelope) vclock.Time {
	if e.srcNode.ID == p.node.ID {
		return e.arrival
	}
	return p.rt.net.EagerEject(p.node, e.bytes, e.arrival)
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
// with the given tag. It returns the message payload.
func (p *Proc) Recv(c *Comm, src, tag int) any {
	e := p.recvCommon(c, src, tag)
	data := e.pl.value()
	p.releaseEnv(e)
	return data
}

// RecvF64Pooled is a blocking receive of a message sent by IsendF64Pooled or
// IssendF64Pooled. The buffer is returned by reference and now belongs to
// the caller, which returns it with PutF64 once it has read it.
func (p *Proc) RecvF64Pooled(c *Comm, src, tag int) []float64 {
	e := p.recvCommon(c, src, tag)
	v := e.pl.slice()
	p.releaseEnv(e)
	return v
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

// Irecv posts a non-blocking receive (MPI_Irecv); complete it with Wait.
func (p *Proc) Irecv(c *Comm, src, tag int) *Request {
	c.checkSource(src)
	mb := p.mbox
	pr := p.newPR()
	*pr = postedRecv{commID: c.id, src: src, tag: tag, posted: p.clock.Now()}
	req := p.newReq()
	*req = Request{p: p, mb: mb, pr: pr}
	if e := mb.takeUnexpected(c.id, src, tag); e != nil {
		completeMatch(pr, e, p)
		return req
	}
	mb.posted = append(mb.posted, pr)
	return req
}

// wait drives the request to completion, returns a receive's body, and
// frees the request. As MPI_Wait sets the handle to MPI_REQUEST_NULL, a
// waited request must not be used again.
func (p *Proc) wait(req *Request) payload {
	if req.p != p {
		panic("psmpi: waiting on another rank's request")
	}
	if req.isSend {
		if !req.done {
			p.waitSendEnv(req.env)
		}
		p.freeReq(req)
		return payload{}
	}
	pr := req.pr
	if !pr.done {
		pr.waiter = p.task
		p.task.Park()
	}
	req.mb.removePosted(pr)
	p.completeRecvPosted(pr)
	e := pr.env
	pl := e.pl
	*pr = postedRecv{}
	p.prFree = append(p.prFree, pr)
	p.releaseEnv(e)
	p.freeReq(req)
	return pl
}

// Wait blocks until the request completes (MPI_Wait) and returns the received
// payload for receives (nil for sends). The request is freed: it must not be
// used again.
func (p *Proc) Wait(req *Request) any {
	return p.wait(req).value()
}

// WaitF64 is Wait for receives of []float64 payloads, returned by reference
// and unboxed. A pooled payload (IsendF64Pooled, IssendF64Pooled) now
// belongs to the caller, which returns it with PutF64 once it has read it.
func (p *Proc) WaitF64(req *Request) []float64 {
	return p.wait(req).slice()
}

// Waitall completes all requests (MPI_Waitall).
func (p *Proc) Waitall(reqs ...*Request) {
	for _, r := range reqs {
		if r != nil {
			p.Wait(r)
		}
	}
}

// SendF64 copies and sends a []float64 payload; the wire size is 8 bytes per
// element. The copy gives MPI value semantics: the caller may reuse buf
// immediately. It comes from the launch's buffer pool, and RecvF64, its sole
// consumer, returns it there after copying out, so the steady-state F64
// traffic of a job allocates nothing.
func (p *Proc) SendF64(c *Comm, dst, tag int, buf []float64) {
	cp := p.GetF64(len(buf))
	copy(cp, buf)
	p.send(c, dst, tag, payload{f64: cp, pooled: true}, 8*len(buf), modeStandard, true)
}

// RecvF64 receives a []float64 payload into buf (which must be large enough)
// and returns the element count. Pool-copied payloads (SendF64) are recycled
// here — the receiver is their last reader.
func (p *Proc) RecvF64(c *Comm, src, tag int, buf []float64) int {
	e := p.recvCommon(c, src, tag)
	v := e.pl.slice()
	n := copy(buf, v)
	if n < len(v) {
		panic(fmt.Sprintf("psmpi: receive buffer too small: %d < %d", len(buf), len(v)))
	}
	if e.pl.pooled {
		p.PutF64(v)
	}
	p.releaseEnv(e)
	return n
}
