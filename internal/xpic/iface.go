package xpic

import (
	"clusterbooster/internal/machine"
	"clusterbooster/internal/psmpi"
)

// Interface buffers (Fig. 5 of the paper): the field solver and the particle
// solver do not touch each other's data structures; they communicate through
// flat pack/unpack buffers. In mono mode the buffer stays in memory (the
// cpyToArr/cpyFromArr calls of Listing 1); in Cluster-Booster mode the same
// buffers are the payload of the inter-communicator messages (Listings 2–4).

// packFields serialises the local real rows of the fields into one buffer
// from the job's pool and charges the copy cost (cpyToArr). The buffer is
// sent pooled; the receiving unpackFields returns it.
func packFields(p *psmpi.Proc, g *Grid, fields []Field) []float64 {
	span := g.NX * g.LY // the real rows are contiguous: [NX, NX·(LY+1))
	buf := p.GetF64(len(fields) * span)
	for i, f := range fields {
		copy(buf[i*span:(i+1)*span], g.F(f)[g.NX:g.NX+span])
	}
	chargeCopy(p, g, fields)
	return buf
}

// unpackFields deserialises a packFields buffer into the local real rows of
// the fields, charges the copy cost (cpyFromArr) and returns the buffer to
// the job's pool.
func unpackFields(p *psmpi.Proc, g *Grid, fields []Field, buf []float64) {
	span := g.NX * g.LY
	for i, f := range fields {
		copy(g.F(f)[g.NX:g.NX+span], buf[i*span:(i+1)*span])
	}
	chargeCopy(p, g, fields)
	p.PutF64(buf)
}

// chargeCopy charges one interface-buffer copy of the fields' real rows.
func chargeCopy(p *psmpi.Proc, g *Grid, fields []Field) {
	p.Compute(machine.Work{Class: machine.KernelStream, Bytes: float64(8 * len(fields) * g.NX * g.LY)})
}
