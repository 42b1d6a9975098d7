package xpic

import (
	"math"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/psmpi"
)

// FieldSolver implements the implicit-moment field solve of xPic (the fld
// object of Listing 1): Maxwell's equations advanced with an implicit,
// unconditionally stable θ-scheme. Eliminating B^{n+1} from the coupled
// Ampère/Faraday update yields the curl-curl system
//
//	(I + d² ∇×∇×) E^{n+1} = E^n + Δt (c²∇×B^n − J)     with d = c·θ·Δt
//
// which is symmetric positive definite and solved by conjugate gradients.
// Every CG iteration applies two curls (with a halo exchange between them)
// and performs two global reductions — exactly the latency-sensitive,
// limited-parallelism workload the paper assigns to the Cluster. The
// magnetic field then advances explicitly with Faraday's law,
// B^{n+1} = B^n − Δt ∇×E^{n+1}.
type FieldSolver struct {
	g   *Grid
	cfg Config

	// CG work vectors, one per E component, sized like the field arrays.
	r, pv, ap [3][]float64
	// cc is the intermediate curl buffer of the curl-curl matvec.
	cc [3][]float64
	// chi is the per-cell plasma susceptibility assembled each step from the
	// electron density moment — the implicit-moment "dressing" of the field
	// operator (the mass-matrix term of the implicit moment method, without
	// the magnetisation rotation, a documented simplification).
	chi []float64

	// LastIters reports the CG iteration count of the most recent solve.
	LastIters int
}

// Flop-count constants for the virtual cost model (per cell, double
// precision), derived from the stencil arithmetic below.
const (
	flopsCurlPerCell   = 8.0                      // central-difference curl, per component
	flopsMatvecPerCell = 2*3*flopsCurlPerCell + 9 // two full curls + (1+χ) axpy
	flopsCGVecPerCell  = 10.0                     // two dots + three axpys per component
	flopsRHSPerCell    = 12.0                     // curl(B) + scale + add, per component
	flopsChiPerCell    = 3.0                      // susceptibility assembly
)

// NewFieldSolver builds the solver over a grid slab. Its 13 work vectors are
// carved from one allocation.
func NewFieldSolver(g *Grid, cfg Config) *FieldSolver {
	fs := &FieldSolver{g: g, cfg: cfg}
	n := len(g.F(FEx))
	slab := make([]float64, 13*n)
	next := func() []float64 {
		v := slab[:n:n]
		slab = slab[n:]
		return v
	}
	for c := 0; c < 3; c++ {
		fs.r[c], fs.pv[c], fs.ap[c], fs.cc[c] = next(), next(), next(), next()
	}
	fs.chi = next()
	return fs
}

// eComponents returns the three E-field arrays.
func (fs *FieldSolver) eComponents() [3][]float64 {
	return [3][]float64{fs.g.F(FEx), fs.g.F(FEy), fs.g.F(FEz)}
}

// curl computes out = ∇×in over the real rows (2-D fields, ∂/∂z = 0, central
// differences, Δx = Δy = 1). in must have valid halos. The loop hoists the
// row bases and wraps the column neighbours with compares instead of modulo
// — pure index arithmetic, bit-identical results.
//
// With a non-nil dress, it instead computes out = (1+χ)·dress + d2·∇×in,
// with χ the per-cell susceptibility: the last step of the curl-curl
// operator, fused into its second curl. Each cell's value is the same
// expression, in the same operand order, as when the curl is stored first
// and the axpy reads it back.
func (fs *FieldSolver) curl(out, in, dress *[3][]float64, d2 float64) {
	g := fs.g
	nx := g.NX
	inx, iny, inz := in[0], in[1], in[2]
	ox, oy, oz := out[0], out[1], out[2]
	for iy := 1; iy <= g.LY; iy++ {
		row := iy * nx
		yr, zr := iny[row:row+nx], inz[row:row+nx]
		xu, zu := inx[row+nx:row+2*nx], inz[row+nx:row+2*nx]
		xd, zd := inx[row-nx:row], inz[row-nx:row]
		oxr, oyr, ozr := ox[row:row+nx], oy[row:row+nx], oz[row:row+nx]
		// Each form has its own loop, with the periodic edges split out of
		// the branch-free interior. Precondition: nx >= 2 (Config.Validate
		// enforces NX >= 4).
		if dress == nil {
			cell := func(ix, ixp, ixm int) {
				dZdY := (zu[ix] - zd[ix]) / 2
				dZdX := (zr[ixp] - zr[ixm]) / 2
				dYdX := (yr[ixp] - yr[ixm]) / 2
				dXdY := (xu[ix] - xd[ix]) / 2
				oxr[ix] = dZdY
				oyr[ix] = -dZdX
				ozr[ix] = dYdX - dXdY
			}
			cell(0, 1, nx-1)
			for ix := 1; ix < nx-1; ix++ {
				cell(ix, ix+1, ix-1)
			}
			cell(nx-1, 0, nx-2)
			continue
		}
		dx, dy, dz := dress[0][row:row+nx], dress[1][row:row+nx], dress[2][row:row+nx]
		chi := fs.chi[row : row+nx]
		cell := func(ix, ixp, ixm int) {
			dZdY := (zu[ix] - zd[ix]) / 2
			dZdX := (zr[ixp] - zr[ixm]) / 2
			dYdX := (yr[ixp] - yr[ixm]) / 2
			dXdY := (xu[ix] - xd[ix]) / 2
			c := 1 + chi[ix]
			oxr[ix] = c*dx[ix] + d2*dZdY
			oyr[ix] = c*dy[ix] + d2*-dZdX
			ozr[ix] = c*dz[ix] + d2*(dYdX-dXdY)
		}
		cell(0, 1, nx-1)
		for ix := 1; ix < nx-1; ix++ {
			cell(ix, ix+1, ix-1)
		}
		cell(nx-1, 0, nx-2)
	}
}

// applyCurlCurl computes out = ((1+χ)I + d² ∇×∇×) in over the real rows,
// where χ is the per-cell plasma susceptibility. in must have valid halos;
// the intermediate curl is halo-exchanged over comm (the second stencil
// application needs neighbour values of the first's result).
func (fs *FieldSolver) applyCurlCurl(p *psmpi.Proc, comm *psmpi.Comm, out, in *[3][]float64, d2 float64) {
	fs.curl(&fs.cc, in, nil, 0)
	fs.exchangeTriple(p, comm, &fs.cc)
	fs.curl(out, &fs.cc, in, d2)
}

// assembleSusceptibility builds the per-cell implicit susceptibility from
// the electron density moment: χ = (θΔt/2)² ωpe², with ωpe² ∝ |ρe| (q/m = 1
// for the normalised electrons). This is the moment-derived dielectric the
// implicit moment method adds to the field operator each step.
func (fs *FieldSolver) assembleSusceptibility() {
	g := fs.g
	coeff := fs.cfg.Theta * fs.cfg.Dt / 2
	coeff *= coeff
	rhoe := g.F(FRhoE)
	for iy := 1; iy <= g.LY; iy++ {
		base := g.Idx(0, iy)
		for ix := 0; ix < g.NX; ix++ {
			i := base + ix
			fs.chi[i] = coeff * math.Abs(rhoe[i])
		}
	}
}

// buildRHS forms the right-hand side E + Δt(c²∇×B − J) into fs.r (reusing it
// as the RHS buffer before the CG loop rewrites it as the residual).
// B halos must be valid.
func (fs *FieldSolver) buildRHS() {
	g := fs.g
	dt := fs.cfg.Dt
	bx, by, bz := g.F(FBx), g.F(FBy), g.F(FBz)
	jx, jy, jz := g.F(FJx), g.F(FJy), g.F(FJz)
	e := fs.eComponents()
	nx := g.NX
	for iy := 1; iy <= g.LY; iy++ {
		row := iy * nx
		up, dn := row+nx, row-nx
		for ix := 0; ix < nx; ix++ {
			ixp := ix + 1
			if ixp == nx {
				ixp = 0
			}
			ixm := ix - 1
			if ixm < 0 {
				ixm = nx - 1
			}
			i := row + ix
			// curl B (2-D, ∂/∂z = 0), central differences, Δx = Δy = 1.
			dBzDy := (bz[up+ix] - bz[dn+ix]) / 2
			dBzDx := (bz[row+ixp] - bz[row+ixm]) / 2
			dByDx := (by[row+ixp] - by[row+ixm]) / 2
			dBxDy := (bx[up+ix] - bx[dn+ix]) / 2
			fs.r[0][i] = e[0][i] + dt*(dBzDy-jx[i])
			fs.r[1][i] = e[1][i] + dt*(-dBzDx-jy[i])
			fs.r[2][i] = e[2][i] + dt*(dByDx-dBxDy-jz[i])
		}
	}
}

// SolveE advances the electric field implicitly (the calculateE of
// Listing 1). It performs the CG iteration with halo exchanges and global
// reductions over comm and charges the rank's clock with the field-solver
// kernel cost.
func (fs *FieldSolver) SolveE(p *psmpi.Proc, comm *psmpi.Comm) {
	g := fs.g
	d := fs.cfg.Theta * fs.cfg.Dt // c = 1
	d2 := d * d
	cells := float64(g.NX * g.LY)

	// RHS build (B halos first) and susceptibility assembly from the
	// freshest moments.
	g.ExchangeHalos(p, comm, FBx, FBy, FBz)
	fs.buildRHS()
	fs.assembleSusceptibility()
	p.Compute(machine.Work{Class: machine.KernelFieldSolver,
		Flops: (3*flopsRHSPerCell + flopsChiPerCell) * cells})

	e := fs.eComponents()
	// Residual r = RHS − A·E (warm start from current E); p = r.
	g.ExchangeHalos(p, comm, FEx, FEy, FEz)
	fs.applyCurlCurl(p, comm, &fs.ap, &e, d2)
	lo, hi := g.NX, g.NX*(g.LY+1)
	// Each dot product sums one component over the real rows, one
	// contiguous region (indices NX .. NX·(LY+1)), in element order; the
	// component sums then add in component order.
	var rr float64
	for c := 0; c < 3; c++ {
		rv, pvv, apv := fs.r[c][lo:hi], fs.pv[c][lo:hi], fs.ap[c][lo:hi]
		var sum float64
		for i := range rv {
			rv[i] -= apv[i]
			pvv[i] = rv[i]
			sum += rv[i] * rv[i]
		}
		rr += sum
	}
	p.Compute(machine.Work{Class: machine.KernelFieldSolver, Flops: (flopsMatvecPerCell + 3*4) * cells})
	rr = p.AllreduceScalar(comm, rr, psmpi.OpSum)
	rr0 := rr
	if rr0 == 0 {
		rr0 = 1
	}

	fs.LastIters = 0
	for iter := 0; iter < fs.cfg.CGMaxIter && rr > fs.cfg.CGTol*fs.cfg.CGTol*rr0 && !math.IsNaN(rr); iter++ {
		fs.LastIters++
		// Halo for the search direction, then A·p.
		fs.exchangeTriple(p, comm, &fs.pv)
		fs.applyCurlCurl(p, comm, &fs.ap, &fs.pv, d2)
		// p·Ap in one pass, one accumulator per component; the component
		// sums then add onto +0 in component order, as above.
		pv0, pv1, pv2 := fs.pv[0][lo:hi], fs.pv[1][lo:hi], fs.pv[2][lo:hi]
		ap0, ap1, ap2 := fs.ap[0][lo:hi], fs.ap[1][lo:hi], fs.ap[2][lo:hi]
		var s0, s1, s2 float64
		for i := range pv0 {
			s0 += pv0[i] * ap0[i]
			s1 += pv1[i] * ap1[i]
			s2 += pv2[i] * ap2[i]
		}
		var pap float64
		pap += s0
		pap += s1
		pap += s2
		pap = p.AllreduceScalar(comm, pap, psmpi.OpSum)
		if pap == 0 {
			break
		}
		alpha := rr / pap
		var rrNew float64
		for c := 0; c < 3; c++ {
			ev, rv, pvv, apv := e[c][lo:hi], fs.r[c][lo:hi], fs.pv[c][lo:hi], fs.ap[c][lo:hi]
			var sum float64
			for i := range rv {
				ev[i] += alpha * pvv[i]
				rv[i] -= alpha * apv[i]
				sum += rv[i] * rv[i]
			}
			rrNew += sum
		}
		rrNew = p.AllreduceScalar(comm, rrNew, psmpi.OpSum)
		beta := rrNew / rr
		for c := 0; c < 3; c++ {
			rv, pvv := fs.r[c][lo:hi], fs.pv[c][lo:hi]
			for i := range pvv {
				pvv[i] = rv[i] + beta*pvv[i]
			}
		}
		rr = rrNew
		p.Compute(machine.Work{Class: machine.KernelFieldSolver,
			Flops: (flopsMatvecPerCell + 3*flopsCGVecPerCell) * cells})
	}
	// Final halos so downstream consumers (interface buffer, curl) see a
	// consistent field.
	g.ExchangeHalos(p, comm, FEx, FEy, FEz)
}

// exchangeTriple halo-exchanges the three components of a work vector.
func (fs *FieldSolver) exchangeTriple(p *psmpi.Proc, comm *psmpi.Comm, v *[3][]float64) {
	g := fs.g
	// Temporarily put the work vectors in the E slots for the exchange.
	saved := [3][]float64{g.fields[FEx], g.fields[FEy], g.fields[FEz]}
	g.fields[FEx], g.fields[FEy], g.fields[FEz] = v[0], v[1], v[2]
	g.ExchangeHalos(p, comm, FEx, FEy, FEz)
	g.fields[FEx], g.fields[FEy], g.fields[FEz] = saved[0], saved[1], saved[2]
}

// SolveB advances the magnetic field explicitly with Faraday's law (the
// calculateB of Listing 1). E halos must be valid (SolveE leaves them so).
func (fs *FieldSolver) SolveB(p *psmpi.Proc, comm *psmpi.Comm) {
	g := fs.g
	dt := fs.cfg.Dt
	ex, ey, ez := g.F(FEx), g.F(FEy), g.F(FEz)
	bx, by, bz := g.F(FBx), g.F(FBy), g.F(FBz)
	nx := g.NX
	for iy := 1; iy <= g.LY; iy++ {
		row := iy * nx
		up, dn := row+nx, row-nx
		for ix := 0; ix < nx; ix++ {
			ixp := ix + 1
			if ixp == nx {
				ixp = 0
			}
			ixm := ix - 1
			if ixm < 0 {
				ixm = nx - 1
			}
			i := row + ix
			dEzDy := (ez[up+ix] - ez[dn+ix]) / 2
			dEzDx := (ez[row+ixp] - ez[row+ixm]) / 2
			dEyDx := (ey[row+ixp] - ey[row+ixm]) / 2
			dExDy := (ex[up+ix] - ex[dn+ix]) / 2
			bx[i] -= dt * dEzDy
			by[i] -= dt * (-dEzDx)
			bz[i] -= dt * (dEyDx - dExDy)
		}
	}
	p.Compute(machine.Work{Class: machine.KernelFieldSolver,
		Flops: 3 * flopsCurlPerCell * float64(g.NX*g.LY)})
	g.ExchangeHalos(p, comm, FBx, FBy, FBz)
}

// FieldEnergy returns this slab's field energy ½Σ(E²+B²) and charges the
// (auxiliary) compute cost.
func (fs *FieldSolver) FieldEnergy(p *psmpi.Proc) float64 {
	g := fs.g
	var sum float64
	for _, name := range FieldNames {
		a := g.F(name)
		for iy := 1; iy <= g.LY; iy++ {
			base := g.Idx(0, iy)
			for ix := 0; ix < g.NX; ix++ {
				v := a[base+ix]
				sum += v * v
			}
		}
	}
	// A streaming reduction over the six field arrays: bandwidth bound.
	p.Compute(machine.Work{Class: machine.KernelStream, Bytes: 6 * 8 * float64(g.NX*g.LY)})
	return 0.5 * sum
}
