package xpic

import (
	"clusterbooster/internal/psmpi"
)

// Grid is one rank's slab of the global 2-D periodic grid: rows are
// decomposed over the ranks of a solver communicator; each local array has
// one ghost row below (index 0) and one above (index ly+1).
type Grid struct {
	NX    int // global (and local) columns
	NY    int // global rows
	LY    int // local real rows (NY / ranks)
	Rank  int // slab index
	Ranks int // slabs
	Y0    int // first global row of this slab
	// fields holds every array, indexed by Field; all are views into one
	// allocation.
	fields [numFields][]float64
}

// Field indexes one of the grid's arrays.
type Field int

// The grid's arrays.
const (
	FEx, FEy, FEz Field = 0, 1, 2
	FBx, FBy, FBz Field = 3, 4, 5
	FRho          Field = 6
	FJx, FJy, FJz Field = 7, 8, 9
	// FRhoE is the electron charge-density magnitude, the moment the
	// implicit-moment field solver needs to assemble the plasma
	// susceptibility of its implicit operator.
	FRhoE Field = 10

	numFields = 11
)

var fieldName = [numFields]string{"Ex", "Ey", "Ez", "Bx", "By", "Bz", "Rho", "Jx", "Jy", "Jz", "RhoE"}

// String returns the field's name.
func (f Field) String() string { return fieldName[f] }

// FieldNames lists the electromagnetic field components.
var FieldNames = []Field{FEx, FEy, FEz, FBx, FBy, FBz}

// MomentNames lists the particle-moment components shipped from the particle
// solver to the field solver (the ρ,J of Fig. 5, plus the electron density
// for the susceptibility assembly).
var MomentNames = []Field{FRho, FJx, FJy, FJz, FRhoE}

// allFields lists every grid array in index order, the fields then the
// moments: a mono rank's and a cluster rank's checkpointed grid state.
var allFields = append(append([]Field(nil), FieldNames...), MomentNames...)

// NewGrid builds the slab for the given rank.
func NewGrid(nx, ny, rank, ranks int) *Grid {
	ly := ny / ranks
	g := &Grid{
		NX: nx, NY: ny, LY: ly,
		Rank: rank, Ranks: ranks, Y0: rank * ly,
	}
	n := nx * (ly + 2)
	slab := make([]float64, numFields*n)
	for f := range g.fields {
		g.fields[f] = slab[f*n : (f+1)*n : (f+1)*n]
	}
	return g
}

// F returns the field's array (with ghost rows).
func (g *Grid) F(f Field) []float64 { return g.fields[f] }

// Idx converts local coordinates (ix in [0,NX), iy in [0, LY+2)) to the array
// index; iy=0 and iy=LY+1 are the ghost rows.
func (g *Grid) Idx(ix, iy int) int { return iy*g.NX + ix }

// row returns row iy of the field (real rows 1..LY, ghosts 0 and LY+1).
func (g *Grid) row(f Field, iy int) []float64 {
	return g.fields[f][iy*g.NX : (iy+1)*g.NX]
}

// AddRow accumulates into row iy of the field.
func (g *Grid) AddRow(f Field, iy int, row []float64) {
	dst := g.row(f, iy)
	for i, v := range row {
		dst[i] += v
	}
}

// ClearGhosts zeroes the ghost rows of the fields.
func (g *Grid) ClearGhosts(fields ...Field) {
	for _, f := range fields {
		clear(g.row(f, 0))
		clear(g.row(f, g.LY+1))
	}
}

// Halo communication tags (user tag space).
const (
	tagHaloUp   = 1 // payload travelling towards higher slab index
	tagHaloDown = 2
	tagMomUp    = 3
	tagMomDown  = 4
	tagPartUp   = 5
	tagPartDown = 6
	tagPartCnt  = 7
	tagIfaceF   = 8 // interface buffer: fields Cluster → Booster
	tagIfaceM   = 9 // interface buffer: moments Booster → Cluster
)

// up/down neighbours in the periodic slab ring.
func (g *Grid) up() int   { return (g.Rank + 1) % g.Ranks }
func (g *Grid) down() int { return (g.Rank - 1 + g.Ranks) % g.Ranks }

// ExchangeHalos fills the ghost rows of the fields from the neighbouring
// slabs (periodic): ghost 0 receives the neighbour-below's top row, ghost
// LY+1 the neighbour-above's bottom row. All components are packed into one
// message per direction, as the real code does.
//
// p is the calling rank's process and comm the solver communicator; with one
// rank the exchange degenerates to a local periodic copy.
func (g *Grid) ExchangeHalos(p *psmpi.Proc, comm *psmpi.Comm, fields ...Field) {
	if g.Ranks == 1 {
		for _, f := range fields {
			copy(g.row(f, 0), g.row(f, g.LY))
			copy(g.row(f, g.LY+1), g.row(f, 1))
		}
		return
	}
	// Top real row travels up (becomes up-neighbour's ghost 0);
	// bottom real row travels down (becomes down-neighbour's ghost LY+1).
	reqUp := p.Isend(comm, g.up(), tagHaloUp, g.packRows(p, fields, g.LY))
	reqDn := p.Isend(comm, g.down(), tagHaloDown, g.packRows(p, fields, 1))
	fromDn := p.Recv(comm, g.down(), tagHaloUp)
	g.unpackRows(p, fields, 0, fromDn, false)
	fromUp := p.Recv(comm, g.up(), tagHaloDown)
	g.unpackRows(p, fields, g.LY+1, fromUp, false)
	p.Waitall(reqUp, reqDn)
}

// packRows copies row iy of every field into one buffer from the job's pool,
// for a pooled send.
func (g *Grid) packRows(p *psmpi.Proc, fields []Field, iy int) []float64 {
	nx := g.NX
	buf := p.GetF64(len(fields) * nx)
	for i, f := range fields {
		copy(buf[i*nx:(i+1)*nx], g.row(f, iy))
	}
	return buf
}

// unpackRows writes (or, with add, accumulates) a received packRows buffer
// into row iy of every field, then returns the buffer to the pool: the
// receiver is its last reader.
func (g *Grid) unpackRows(p *psmpi.Proc, fields []Field, iy int, buf []float64, add bool) {
	nx := g.NX
	for i, f := range fields {
		if add {
			g.AddRow(f, iy, buf[i*nx:(i+1)*nx])
		} else {
			copy(g.row(f, iy), buf[i*nx:(i+1)*nx])
		}
	}
	p.PutF64(buf)
}

// ReduceMomentHalos sends the deposits accumulated in the ghost rows to the
// neighbours that own those rows, where they are added to the boundary real
// rows, and clears the ghosts — the "halo add" step after moment gathering.
func (g *Grid) ReduceMomentHalos(p *psmpi.Proc, comm *psmpi.Comm) {
	fields := MomentNames
	if g.Ranks == 1 {
		// Only the ghost rows are read and only real rows are written, so
		// adding in place needs no copy.
		for _, f := range fields {
			g.AddRow(f, g.LY, g.row(f, 0))
			g.AddRow(f, 1, g.row(f, g.LY+1))
		}
		g.ClearGhosts(fields...)
		return
	}
	// Ghost LY+1 holds deposits belonging to the up-neighbour's row 1;
	// ghost 0 belongs to the down-neighbour's row LY.
	reqUp := p.Isend(comm, g.up(), tagMomUp, g.packRows(p, fields, g.LY+1))
	reqDn := p.Isend(comm, g.down(), tagMomDown, g.packRows(p, fields, 0))
	fromDn := p.Recv(comm, g.down(), tagMomUp)
	g.unpackRows(p, fields, 1, fromDn, true)
	fromUp := p.Recv(comm, g.up(), tagMomDown)
	g.unpackRows(p, fields, g.LY, fromUp, true)
	p.Waitall(reqUp, reqDn)
	g.ClearGhosts(fields...)
}
