package xpic

import (
	"math"
	"math/rand"
	"sync"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/psmpi"
)

// Flop-count constants per macro-particle for the virtual cost model,
// derived from the arithmetic of the mover and the moment gathering.
const (
	flopsWeights = 10.0 // bilinear weights
	flopsGather  = 48.0 // 6 field components × 4 corners × 2 flops
	flopsBoris   = 42.0 // half-kicks + rotation
	flopsPush    = 8.0  // position update + periodic wrap
	flopsMoments = 42.0 // weights + 4 moments × 4 corners × 2 flops
	// flopsRhoEDeposit is the extra electron-density deposit feeding the
	// implicit susceptibility.
	flopsRhoEDeposit = 8.0
	// flopsMigrateScan is the per-particle boundary check + compaction move
	// of the migration pass.
	flopsMigrateScan = 4.0
	flopsMovePart    = flopsWeights + flopsGather + flopsBoris + flopsPush
)

// Species holds one plasma species' macro-particles on one rank, stored as
// structure-of-arrays, the layout the vectorised particle solver favours.
type Species struct {
	Spec SpeciesSpec
	// Q is the macro-particle charge (statistical weight included).
	Q float64
	// Positions are global coordinates: x in [0,NX), y in [0,NY).
	X, Y       []float64
	VX, VY, VZ []float64
}

// N returns the number of macro-particles currently on this rank.
func (s *Species) N() int { return len(s.X) }

// ParticleSolver implements the pcl object of Listing 1: Newton's equation
// for every particle (ParticlesMove) and the statistical moment gathering
// (ParticleMoments) — the embarrassingly parallel, wide-vector workload the
// paper assigns to the Booster.
type ParticleSolver struct {
	g       *Grid
	cfg     Config
	Species []*Species
	// scale is the statistical weight multiplier (ParticleScale).
	scale float64
}

// seedRNGs recycles the generators that seed particles. Rand.Seed resets a
// source to exactly the state rand.NewSource builds for that seed, so a
// recycled, re-seeded generator draws the same streams as a fresh 4.9 KB
// source per species and rank.
var seedRNGs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// NewParticleSolver initialises the particles of this rank's slab: uniform
// positions within the slab, Maxwellian velocities, deterministic per
// (seed, species, rank) — so a decomposition runs identically in mono and
// split modes.
func NewParticleSolver(g *Grid, cfg Config) *ParticleSolver {
	ps := &ParticleSolver{g: g, cfg: cfg, scale: float64(cfg.ParticleScale)}
	ppcSpecies := cfg.PPC / len(cfg.Species)
	perRankCells := g.NX * g.LY
	base := perRankCells * ppcSpecies / cfg.ParticleScale
	// Density profile 1 + A·sin(2πy/NY): this slab's share is the profile
	// integrated over its rows. Both species share the profile, preserving
	// quasi-neutrality everywhere.
	share := slabDensityShare(cfg.DensityPerturbation, g)
	actualPerSpecies := int(math.Round(float64(base) * share))
	rng := seedRNGs.Get().(*rand.Rand)
	defer seedRNGs.Put(rng)
	// The five columns of a species share one allocation, with an eighth of
	// headroom for net migration arrivals. A column that outgrows it is
	// copied by append. Over the four experiments of the scale benchmark
	// (about 30 particles per column), a third of the columns outgrow their
	// initial count and 4% outgrow an eighth more. Column bytes allocated,
	// growth included, are 217 MiB with no headroom, 150 with a sixteenth,
	// 143 with an eighth and 153 with a quarter. The paper benchmark's
	// columns (about 2,200 particles) grow by at most 3%.
	n, c := actualPerSpecies, actualPerSpecies+actualPerSpecies/8
	for si, spec := range cfg.Species {
		rng.Seed(cfg.Seed + int64(si)*1009 + int64(g.Rank)*9973)
		cols := make([]float64, 5*c)
		col := func(i int) []float64 { return cols[i*c : i*c+n : (i+1)*c] }
		sp := &Species{
			Spec: spec,
			// Unit mean density per species: per-cell charge ±1 split over
			// the actual macro-particles, weight-corrected by the scale.
			Q: spec.ChargeSign * float64(cfg.ParticleScale) / float64(ppcSpecies),
			X: col(0), Y: col(1), VX: col(2), VY: col(3), VZ: col(4),
		}
		for i := 0; i < actualPerSpecies; i++ {
			sp.X[i] = rng.Float64() * float64(g.NX)
			sp.Y[i] = sampleY(rng, cfg.DensityPerturbation, g)
			sp.VX[i] = rng.NormFloat64() * spec.Vth
			sp.VY[i] = rng.NormFloat64() * spec.Vth
			sp.VZ[i] = rng.NormFloat64() * spec.Vth
		}
		ps.Species = append(ps.Species, sp)
	}
	return ps
}

// slabDensityShare integrates the density profile over this slab's rows,
// relative to a uniform plasma.
func slabDensityShare(a float64, g *Grid) float64 {
	if a == 0 {
		return 1
	}
	k := 2 * math.Pi / float64(g.NY)
	y0, y1 := float64(g.Y0), float64(g.Y0+g.LY)
	// ∫(1 + A·sin(ky))dy over [y0,y1], divided by the slab height.
	integral := (y1 - y0) + a/k*(math.Cos(k*y0)-math.Cos(k*y1))
	return integral / (y1 - y0)
}

// sampleY draws a y position within the slab from the density profile by
// rejection sampling (bounded: the profile is within [1-A, 1+A]).
func sampleY(rng *rand.Rand, a float64, g *Grid) float64 {
	lo, span := float64(g.Y0), float64(g.LY)
	if a == 0 {
		return lo + rng.Float64()*span
	}
	k := 2 * math.Pi / float64(g.NY)
	for {
		y := lo + rng.Float64()*span
		if rng.Float64()*(1+a) <= 1+a*math.Sin(k*y) {
			return y
		}
	}
}

// TotalN returns the actual macro-particle count on this rank (all species).
func (ps *ParticleSolver) TotalN() int {
	n := 0
	for _, s := range ps.Species {
		n += s.N()
	}
	return n
}

// cellAt locates the bilinear (cloud-in-cell) stencil of a particle at
// global (x, y) on a slab whose row 1 covers global [y0, y0+1): the cell
// indices of its lower-left and lower-right corners (the upper two are one
// row, nx cells, further on) and its fractional offsets. x must lie in
// [0, nx] (the periodic wrap leaves positions there) and y within the slab,
// so ly lies in [1, LY+1). Both are non-negative, where truncation toward
// zero and math.Floor agree, so int(x) names the same cell as
// int(math.Floor(x)). It inlines into Move and Gather
// (go build -gcflags=-m ./internal/xpic reports "can inline cellAt").
func cellAt(x, y, y0 float64, nx int) (i0, i1 int, fx, fy float64) {
	ly := y - y0 + 1
	ix, iy := int(x), int(ly)
	fx, fy = x-float64(ix), ly-float64(iy)
	if ix >= nx { // x == NX exactly (wrap boundary)
		ix -= nx
	}
	ixp := ix + 1
	if ixp >= nx {
		ixp -= nx
	}
	return iy*nx + ix, iy*nx + ixp, fx, fy
}

// wrapPeriodic wraps x into [0, L) after a position push, bit-identically to
// the reference form `x = math.Mod(x, l); if x < 0 { x += l }`: fmod is
// exact, and for single-period excursions it reduces to one subtraction
// (exact by Sterbenz' lemma on [l, 2l]) or one addition (Mod(x, l) == x for
// |x| < l). Pathological velocities fall back to Mod itself.
func wrapPeriodic(x, l float64) float64 {
	if x >= l {
		if x < 2*l {
			return x - l
		}
		return math.Mod(x, l)
	}
	if x < 0 {
		if x >= -l {
			return x + l
		}
		x = math.Mod(x, l)
		if x < 0 {
			x += l
		}
	}
	return x
}

// Move advances all particles one step with the Boris scheme under the
// current E and B (ParticlesMove of Listing 1) and charges the particle
// kernel cost for the *configured* particle count (scale-invariant timing).
// E and B are first packed into one [Ex Ey Ez Bx By Bz] record per cell, so
// that each particle reads its four corner records instead of 24 values
// scattered over six arrays.
func (ps *ParticleSolver) Move(p *psmpi.Proc) {
	g := ps.g
	dt := ps.cfg.Dt
	ex, ey, ez := g.F(FEx), g.F(FEy), g.F(FEz)
	bx, by, bz := g.F(FBx), g.F(FBy), g.F(FBz)
	eb := p.Scratch(6 * len(ex))
	for i := range ex {
		r := (*[6]float64)(eb[6*i:])
		r[0], r[1], r[2], r[3], r[4], r[5] = ex[i], ey[i], ez[i], bx[i], by[i], bz[i]
	}
	nx, ny := float64(g.NX), float64(g.NY)
	y0, nxi := float64(g.Y0), g.NX
	for _, s := range ps.Species {
		qmdt2 := s.Spec.QoverM * dt / 2
		sX, sY := s.X, s.Y
		sVX, sVY, sVZ := s.VX, s.VY, s.VZ
		for i := range sX {
			x, y := sX[i], sY[i]
			i0, i1, fx, fy := cellAt(x, y, y0, nxi)
			gx, gy := 1-fx, 1-fy
			r00, r10 := (*[6]float64)(eb[6*i0:]), (*[6]float64)(eb[6*i1:])
			r01, r11 := (*[6]float64)(eb[6*(i0+nxi):]), (*[6]float64)(eb[6*(i1+nxi):])
			eix := r00[0]*gx*gy + r10[0]*fx*gy + r01[0]*gx*fy + r11[0]*fx*fy
			eiy := r00[1]*gx*gy + r10[1]*fx*gy + r01[1]*gx*fy + r11[1]*fx*fy
			eiz := r00[2]*gx*gy + r10[2]*fx*gy + r01[2]*gx*fy + r11[2]*fx*fy
			bix := r00[3]*gx*gy + r10[3]*fx*gy + r01[3]*gx*fy + r11[3]*fx*fy
			biy := r00[4]*gx*gy + r10[4]*fx*gy + r01[4]*gx*fy + r11[4]*fx*fy
			biz := r00[5]*gx*gy + r10[5]*fx*gy + r01[5]*gx*fy + r11[5]*fx*fy
			// Boris: half electric kick, magnetic rotation, half kick.
			vx := sVX[i] + qmdt2*eix
			vy := sVY[i] + qmdt2*eiy
			vz := sVZ[i] + qmdt2*eiz
			tx, ty, tz := qmdt2*bix, qmdt2*biy, qmdt2*biz
			t2 := tx*tx + ty*ty + tz*tz
			sx, sy, sz := 2*tx/(1+t2), 2*ty/(1+t2), 2*tz/(1+t2)
			// v' = v + v×t ; v+ = v + v'×s
			px := vx + vy*tz - vz*ty
			py := vy + vz*tx - vx*tz
			pz := vz + vx*ty - vy*tx
			vx += py*sz - pz*sy
			vy += pz*sx - px*sz
			vz += px*sy - py*sx
			vx += qmdt2 * eix
			vy += qmdt2 * eiy
			vz += qmdt2 * eiz
			sVX[i], sVY[i], sVZ[i] = vx, vy, vz
			// Position push with periodic wrap.
			sX[i] = wrapPeriodic(x+vx*dt, nx)
			sY[i] = wrapPeriodic(y+vy*dt, ny)
		}
	}
	p.Compute(machine.Work{Class: machine.KernelParticle,
		Flops: flopsMovePart * float64(ps.TotalN()) * ps.scale})
}

// Gather deposits the charge density and current of all species (the
// moment gathering of Listing 1). Deposits land in local and ghost rows;
// call Grid.ReduceMomentHalos afterwards. They accumulate in one
// [ρ Jx Jy Jz ρe] record per cell, which then overwrites all five moment
// arrays, ghost rows included: each cell receives the same additions, in
// the same particle order, as when depositing into the arrays directly.
func (ps *ParticleSolver) Gather(p *psmpi.Proc) {
	g := ps.g
	rho, jx, jy, jz := g.F(FRho), g.F(FJx), g.F(FJy), g.F(FJz)
	rhoe := g.F(FRhoE)
	acc := p.Scratch(5 * len(rho))
	clear(acc)
	y0, nxi := float64(g.Y0), g.NX
	var flops float64
	for _, s := range ps.Species {
		electron := s.Spec.QoverM < -0.5
		q := s.Q
		sX, sY := s.X, s.Y
		sVX, sVY, sVZ := s.VX, s.VY, s.VZ
		for i := range sX {
			i0, i1, fx, fy := cellAt(sX[i], sY[i], y0, nxi)
			gx, gy := 1-fx, 1-fy
			c00, c10 := (*[5]float64)(acc[5*i0:]), (*[5]float64)(acc[5*i1:])
			c01, c11 := (*[5]float64)(acc[5*(i0+nxi):]), (*[5]float64)(acc[5*(i1+nxi):])
			wx, wy, wz := q*sVX[i], q*sVY[i], q*sVZ[i]
			c00[0] += q * gx * gy
			c10[0] += q * fx * gy
			c01[0] += q * gx * fy
			c11[0] += q * fx * fy
			c00[1] += wx * gx * gy
			c10[1] += wx * fx * gy
			c01[1] += wx * gx * fy
			c11[1] += wx * fx * fy
			c00[2] += wy * gx * gy
			c10[2] += wy * fx * gy
			c01[2] += wy * gx * fy
			c11[2] += wy * fx * fy
			c00[3] += wz * gx * gy
			c10[3] += wz * fx * gy
			c01[3] += wz * gx * fy
			c11[3] += wz * fx * fy
			if electron {
				// Electron density for the field solver's susceptibility.
				c00[4] += -q * gx * gy
				c10[4] += -q * fx * gy
				c01[4] += -q * gx * fy
				c11[4] += -q * fx * fy
			}
		}
		perPart := flopsMoments
		if electron {
			perPart += flopsRhoEDeposit
		}
		flops += perPart * float64(s.N()) * ps.scale
	}
	for i := range rho {
		c := (*[5]float64)(acc[5*i:])
		rho[i], jx[i], jy[i], jz[i], rhoe[i] = c[0], c[1], c[2], c[3], c[4]
	}
	p.Compute(machine.Work{Class: machine.KernelParticle, Flops: flops})
}

// Migrate moves particles that left this slab to the owning neighbour rank
// (only nearest-neighbour moves can occur per step: the slab height always
// exceeds vmax·dt for the configured workloads). With one rank it is a no-op
// (periodic wrap already applied).
func (ps *ParticleSolver) Migrate(p *psmpi.Proc, comm *psmpi.Comm) {
	g := ps.g
	if g.Ranks == 1 {
		return
	}
	// The boundary scan + compaction touches every particle (cost charged
	// for the configured count, like the other particle kernels).
	p.Compute(machine.Work{Class: machine.KernelParticle,
		Flops: flopsMigrateScan * float64(ps.TotalN()) * ps.scale})
	upBuf, dnBuf := ps.takeLeavers(p)
	// Exchange with both neighbours (counts travel with the payload); each
	// receiver returns the buffer to the pool after absorbing it.
	reqUp := p.Isend(comm, g.up(), tagPartUp, upBuf)
	reqDn := p.Isend(comm, g.down(), tagPartDown, dnBuf)
	fromDn := p.Recv(comm, g.down(), tagPartUp)
	ps.absorb(fromDn)
	p.PutF64(fromDn)
	fromUp := p.Recv(comm, g.up(), tagPartDown)
	ps.absorb(fromUp)
	p.PutF64(fromUp)
	p.Waitall(reqUp, reqDn)
}

// takeLeavers compacts every species to the particles that stay on this
// slab and returns the records of those that leave, for the up- and the
// down-neighbour. Both buffers come from the job's pool.
func (ps *ParticleSolver) takeLeavers(p *psmpi.Proc) (upBuf, dnBuf []float64) {
	// Count the leavers first, so each direction's records go into one
	// buffer from the job's pool, taken at its final size.
	nUp, nDn := 0, 0
	for _, s := range ps.Species {
		for _, y := range s.Y {
			switch ps.dir(y) {
			case 1:
				nUp++
			case -1:
				nDn++
			}
		}
	}
	// 6 floats per particle: species, x, y, vx, vy, vz.
	upBuf, dnBuf = p.GetF64(6 * nUp)[:0], p.GetF64(6 * nDn)[:0]
	for si, s := range ps.Species {
		kept := 0
		for i := 0; i < s.N(); i++ {
			d := ps.dir(s.Y[i])
			if d == 0 {
				s.X[kept], s.Y[kept] = s.X[i], s.Y[i]
				s.VX[kept], s.VY[kept], s.VZ[kept] = s.VX[i], s.VY[i], s.VZ[i]
				kept++
				continue
			}
			dst := &upBuf
			if d == -1 {
				dst = &dnBuf
			}
			*dst = append(*dst, float64(si), s.X[i], s.Y[i], s.VX[i], s.VY[i], s.VZ[i])
		}
		s.X, s.Y = s.X[:kept], s.Y[:kept]
		s.VX, s.VY, s.VZ = s.VX[:kept], s.VY[:kept], s.VZ[:kept]
	}
	return upBuf, dnBuf
}

// dir says where a particle at global row y belongs after a push: 0 for
// this slab, 1 for the up-neighbour and -1 for the down-neighbour in the
// periodic ring.
func (ps *ParticleSolver) dir(y float64) int {
	g := ps.g
	if y >= float64(g.Y0) && y < float64(g.Y0+g.LY) {
		return 0
	}
	// The owner is above when y is in the up-neighbour's slab (wrapping at
	// the top).
	switch owner := int(y) / g.LY; {
	case owner == g.up():
		return 1
	case owner == g.down(), y >= float64(g.NY)-0.5 && g.down() == g.Ranks-1:
		return -1
	}
	return 1
}

// absorb appends migrated particle records to the local species.
func (ps *ParticleSolver) absorb(buf []float64) {
	for i := 0; i+5 < len(buf); i += 6 {
		s := ps.Species[int(buf[i])]
		s.X = append(s.X, buf[i+1])
		s.Y = append(s.Y, buf[i+2])
		s.VX = append(s.VX, buf[i+3])
		s.VY = append(s.VY, buf[i+4])
		s.VZ = append(s.VZ, buf[i+5])
	}
}

// KineticEnergy returns ½ Σ m v² over this rank's particles (statistical
// weight applied) and charges the auxiliary compute cost.
func (ps *ParticleSolver) KineticEnergy(p *psmpi.Proc) float64 {
	var sum float64
	for _, s := range ps.Species {
		mass := math.Abs(1 / s.Spec.QoverM) // |q|=..., m = |q/qom|; with |q| folded into Q
		w := math.Abs(s.Q) * mass
		for i := range s.X {
			sum += w * (s.VX[i]*s.VX[i] + s.VY[i]*s.VY[i] + s.VZ[i]*s.VZ[i])
		}
	}
	// A straight streaming reduction over the particle arrays: vectorises
	// like the particle kernels. Costed for the configured particle count.
	p.Compute(machine.Work{Class: machine.KernelParticle,
		Flops: 7 * float64(ps.TotalN()) * ps.scale})
	return 0.5 * sum
}

// TotalCharge sums the macro-charge on this rank (conservation diagnostic).
func (ps *ParticleSolver) TotalCharge() float64 {
	var sum float64
	for _, s := range ps.Species {
		sum += s.Q * float64(s.N())
	}
	return sum
}
