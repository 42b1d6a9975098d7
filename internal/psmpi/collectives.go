package psmpi

import "fmt"

// Collective operations, built on top of the timed point-to-point layer with
// the standard algorithms (dissemination barrier, binomial trees), so that
// their virtual-time cost emerges from the fabric model rather than being
// postulated.
//
// As in MPI, all members of the communicator must call the same collectives
// in the same order. Collectives are not supported on inter-communicators.

// Op is a reduction operator over float64.
type Op int

const (
	// OpSum adds elementwise.
	OpSum Op = iota
	// OpMax takes the elementwise maximum.
	OpMax
	// OpMin takes the elementwise minimum.
	OpMin
)

func (o Op) apply(dst, src []float64) {
	switch o {
	case OpSum:
		for i, v := range src {
			dst[i] += v
		}
	case OpMax:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	case OpMin:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	default:
		panic(fmt.Sprintf("psmpi: unknown op %d", int(o)))
	}
}

// collTag reserves a fresh tag block for one collective invocation on comm.
// Every rank calls collectives in the same order (an MPI requirement), so the
// per-rank sequence counters agree across ranks without synchronisation.
func (p *Proc) collTag(c *Comm) int {
	if c.IsInter() {
		panic("psmpi: collectives on inter-communicators are not supported")
	}
	if c.Size() > collTagBlock {
		panic(fmt.Sprintf("psmpi: communicator size %d exceeds collective tag block %d", c.Size(), collTagBlock))
	}
	me := p.rankIn(c)
	seq := c.collSeq[me]
	c.collSeq[me] = seq + 1
	return MaxUserTag + int(seq)*collTagBlock
}

// collTagBlock is the number of reserved tags per collective invocation; it
// bounds the number of internal rounds a single collective may use. collTag
// caps the communicator size at the block, one tag per rank, which leaves
// ample room: the barrier, the collective with the most rounds, uses
// ⌈log2 p⌉. 65536 admits the fig8-scale16384 jobs and the n=65536
// deep-scale test point. Tag values only ever matter for matching, so the
// block size has no timing effect.
const collTagBlock = 1 << 16

// Barrier synchronises all ranks of the communicator (dissemination
// algorithm: ⌈log2 p⌉ rounds of zero-byte messages). On return every rank's
// clock is at least the maximum pre-barrier clock plus the network rounds.
func (p *Proc) Barrier(c *Comm) {
	base := p.collTag(c)
	me := p.rankIn(c)
	n := c.Size()
	for k, round := 1, 0; k < n; k, round = k<<1, round+1 {
		dst := (me + k) % n
		src := (me - k + n) % n
		req := p.sendTagged(c, dst, base+round, nil, 0, modeStandard)
		p.Recv(c, src, base+round)
		p.Wait(req)
	}
}

// bcastTree walks the binomial broadcast tree for this rank: receive once
// from the parent (every rank but the root has exactly one), then forward
// down the subtree in decreasing-mask order. BcastF64 and Spawn's handle
// distribution share this traversal so the tree topology cannot diverge
// between them; only the body handling differs.
func (p *Proc) bcastTree(c *Comm, root int, recv func(src int), forward func(dst int)) {
	me := p.rankIn(c)
	n := c.Size()
	rel := (me - root + n) % n

	mask := 1
	for mask < n {
		if rel&mask != 0 {
			recv((rel - mask + root + n) % n)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			forward((rel + mask + root) % n)
		}
		mask >>= 1
	}
}

// BcastF64 broadcasts a float64 slice from root; every rank receives a copy
// into buf (root's buf is the source). A rank's own buf may be rewritten the
// moment the collective returns, so each hop of the binomial tree carries a
// copy from the launch's buffer pool, which its receiver returns after
// copying out.
func (p *Proc) BcastF64(c *Comm, root int, buf []float64) {
	base := p.collTag(c)
	p.bcastTree(c, root,
		func(src int) {
			blk := p.Recv(c, src, base)
			copy(buf, blk)
			p.PutF64(blk)
		},
		func(dst int) {
			blk := p.GetF64(len(buf))
			copy(blk, buf)
			p.Wait(p.sendTagged(c, dst, base, blk, 8*len(blk), modeStandard))
		})
}

// ReduceF64 reduces buf elementwise onto root with op (binomial tree). On
// root, buf holds the result afterwards; on other ranks buf is untouched.
// The accumulators travel rank to rank inside the collective and die at the
// receiving end, so they come from the launch's buffer pool: a sent
// accumulator is recycled by its receiver after the reduction step, the
// root's after the final copy-out.
func (p *Proc) ReduceF64(c *Comm, root int, buf []float64, op Op) {
	base := p.collTag(c)
	me := p.rankIn(c)
	n := c.Size()
	rel := (me - root + n) % n

	acc := p.GetF64(len(buf))
	copy(acc, buf)
	sent := false
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask == 0 {
			srcRel := rel | mask
			if srcRel < n {
				src := (srcRel + root) % n
				part := p.Recv(c, src, base)
				op.apply(acc, part)
				p.PutF64(part)
			}
		} else {
			dstRel := rel &^ mask
			dst := (dstRel + root) % n
			p.Wait(p.sendTagged(c, dst, base, acc, 8*len(acc), modeStandard))
			sent = true
			break
		}
	}
	if me == root {
		copy(buf, acc)
	}
	if !sent {
		p.PutF64(acc)
	}
}

// AllreduceF64 reduces buf elementwise across all ranks and leaves the result
// in every rank's buf (reduce-to-0 + broadcast; 2⌈log2 p⌉ rounds).
func (p *Proc) AllreduceF64(c *Comm, buf []float64, op Op) {
	p.ReduceF64(c, 0, buf, op)
	p.BcastF64(c, 0, buf)
}

// AllreduceScalar reduces a single float64 across the communicator. The
// one-element working buffer is a per-rank scratch: the collectives below
// only read it (and write the result back), never retain it.
func (p *Proc) AllreduceScalar(c *Comm, v float64, op Op) float64 {
	if p.scalarBuf == nil {
		p.scalarBuf = make([]float64, 1)
	}
	buf := p.scalarBuf
	buf[0] = v
	p.AllreduceF64(c, buf, op)
	return buf[0]
}
