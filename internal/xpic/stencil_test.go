package xpic

import (
	"math"
	"math/rand"
	"testing"

	"clusterbooster/internal/psmpi"
)

// interp is the reference bilinear (cloud-in-cell) interpolation of a field
// at global (x, y), one field and one particle at a time. y must lie within
// this slab (ghost rows supply the upper neighbour's values).
func (ps *ParticleSolver) interp(a []float64, x, y float64) float64 {
	i00, i10, i01, i11, fx, fy := ps.corners(x, y)
	return a[i00]*(1-fx)*(1-fy) + a[i10]*fx*(1-fy) + a[i01]*(1-fx)*fy + a[i11]*fx*fy
}

// deposit is the reference deposit: it adds w·weight to the four cells
// around (x, y) of field a.
func (ps *ParticleSolver) deposit(a []float64, x, y, w float64) {
	i00, i10, i01, i11, fx, fy := ps.corners(x, y)
	a[i00] += w * (1 - fx) * (1 - fy)
	a[i10] += w * fx * (1 - fy)
	a[i01] += w * (1 - fx) * fy
	a[i11] += w * fx * fy
}

// corners returns the array indices of the four cells around global (x, y)
// and the fractional offsets, with math.Floor and a modulo wrap of the
// columns.
func (ps *ParticleSolver) corners(x, y float64) (i00, i10, i01, i11 int, fx, fy float64) {
	g := ps.g
	// Local y: row 1 covers global [Y0, Y0+1).
	ly := y - float64(g.Y0) + 1
	ix := int(math.Floor(x))
	iy := int(math.Floor(ly))
	wrap := func(ix int) int { return ((ix % g.NX) + g.NX) % g.NX }
	i00, i10 = iy*g.NX+wrap(ix), iy*g.NX+wrap(ix+1)
	return i00, i10, i00 + g.NX, i10 + g.NX, x - float64(ix), ly - float64(iy)
}

// refMove is Move built from interp: the Boris push of every particle, each
// field component interpolated on its own.
func (ps *ParticleSolver) refMove() {
	g := ps.g
	dt := ps.cfg.Dt
	for _, s := range ps.Species {
		qmdt2 := s.Spec.QoverM * dt / 2
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			eix, eiy, eiz := ps.interp(g.F(FEx), x, y), ps.interp(g.F(FEy), x, y), ps.interp(g.F(FEz), x, y)
			bix, biy, biz := ps.interp(g.F(FBx), x, y), ps.interp(g.F(FBy), x, y), ps.interp(g.F(FBz), x, y)
			vx := s.VX[i] + qmdt2*eix
			vy := s.VY[i] + qmdt2*eiy
			vz := s.VZ[i] + qmdt2*eiz
			tx, ty, tz := qmdt2*bix, qmdt2*biy, qmdt2*biz
			t2 := tx*tx + ty*ty + tz*tz
			sx, sy, sz := 2*tx/(1+t2), 2*ty/(1+t2), 2*tz/(1+t2)
			px := vx + vy*tz - vz*ty
			py := vy + vz*tx - vx*tz
			pz := vz + vx*ty - vy*tx
			vx += py*sz - pz*sy
			vy += pz*sx - px*sz
			vz += px*sy - py*sx
			vx += qmdt2 * eix
			vy += qmdt2 * eiy
			vz += qmdt2 * eiz
			s.VX[i], s.VY[i], s.VZ[i] = vx, vy, vz
			s.X[i] = wrapPeriodic(x+vx*dt, float64(g.NX))
			s.Y[i] = wrapPeriodic(y+vy*dt, float64(g.NY))
		}
	}
}

// refGather is Gather built from deposit: every moment array zeroed, then
// each particle deposited into each array on its own.
func (ps *ParticleSolver) refGather() {
	g := ps.g
	for _, f := range MomentNames {
		clear(g.F(f))
	}
	for _, s := range ps.Species {
		q := s.Q
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			ps.deposit(g.F(FRho), x, y, q)
			ps.deposit(g.F(FJx), x, y, q*s.VX[i])
			ps.deposit(g.F(FJy), x, y, q*s.VY[i])
			ps.deposit(g.F(FJz), x, y, q*s.VZ[i])
			if s.Spec.QoverM < -0.5 {
				ps.deposit(g.F(FRhoE), x, y, -q)
			}
		}
	}
}

// diffSolver builds a particle solver on slab 2 of 4 (so Y0 > 0) of a
// 12×48 grid: random E and B on every cell, ghost rows included, and both
// default species with random particles. The particles include positions
// at x == NX (the wrap boundary) and in the top real row, whose deposits
// land in the upper ghost row.
func diffSolver(seed int64) *ParticleSolver {
	rng := rand.New(rand.NewSource(seed))
	g := NewGrid(12, 48, 2, 4)
	for _, f := range FieldNames {
		for i, a := 0, g.F(f); i < len(a); i++ {
			a[i] = rng.NormFloat64()
		}
	}
	cfg := QuickConfig(1)
	cfg.Dt = 0.7
	ps := &ParticleSolver{g: g, cfg: cfg, scale: 1}
	top := float64(g.Y0 + g.LY)
	for si, spec := range DefaultSpecies() {
		s := &Species{Spec: spec, Q: spec.ChargeSign * (0.5 + rng.Float64())}
		for i := 0; i < 400; i++ {
			x := rng.Float64() * float64(g.NX)
			y := float64(g.Y0) + rng.Float64()*float64(g.LY)
			switch i % 8 {
			case 0:
				x = float64(g.NX)
			case 1:
				y = math.Nextafter(top, 0)
			case 2:
				y = top - 1 + rng.Float64()
			case 3:
				y = float64(g.Y0)
			}
			s.X, s.Y = append(s.X, x), append(s.Y, y)
			s.VX = append(s.VX, rng.NormFloat64()*float64(si+1))
			s.VY = append(s.VY, rng.NormFloat64()*float64(si+1))
			s.VZ = append(s.VZ, rng.NormFloat64()*float64(si+1))
		}
		ps.Species = append(ps.Species, s)
	}
	return ps
}

// sameBits reports the first element where two slices differ bit for bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// TestStencilMatchesReference runs the hot kernels, Move and Gather with
// their packed per-cell records, beside reference loops built from interp
// and deposit, and requires every particle coordinate and every moment
// value, ghost rows included, to match bit for bit.
func TestStencilMatchesReference(t *testing.T) {
	withRank(t, func(p *psmpi.Proc) error {
		for seed := int64(1); seed <= 3; seed++ {
			got, want := diffSolver(seed), diffSolver(seed)
			got.Gather(p)
			want.refGather()
			for _, f := range MomentNames {
				sameBits(t, f.String(), got.g.F(f), want.g.F(f))
			}
			got.Move(p)
			want.refMove()
			for si := range got.Species {
				gs, ws := got.Species[si], want.Species[si]
				sameBits(t, "X", gs.X, ws.X)
				sameBits(t, "Y", gs.Y, ws.Y)
				sameBits(t, "VX", gs.VX, ws.VX)
				sameBits(t, "VY", gs.VY, ws.VY)
				sameBits(t, "VZ", gs.VZ, ws.VZ)
			}
			// A second gather over moment arrays that already hold values:
			// Gather must overwrite every cell, ghost rows included. The
			// moved particles are first put back into the slab.
			for _, ps := range []*ParticleSolver{got, want} {
				for _, s := range ps.Species {
					for i := range s.Y {
						s.Y[i] = float64(ps.g.Y0) + math.Mod(s.Y[i], float64(ps.g.LY))
					}
				}
			}
			got.Gather(p)
			want.refGather()
			for _, f := range MomentNames {
				sameBits(t, f.String(), got.g.F(f), want.g.F(f))
			}
		}
		return nil
	})
}

// TestWrapPeriodicMatchesMod pins wrapPeriodic to the reference
// `Mod(x, l); if x < 0 { x += l }` form, bit for bit, across single- and
// multi-period excursions and exact boundaries.
func TestWrapPeriodicMatchesMod(t *testing.T) {
	ref := func(x, l float64) float64 {
		x = math.Mod(x, l)
		if x < 0 {
			x += l
		}
		return x
	}
	const l = 64.0
	cases := []float64{0, 0.5, l - 1e-12, l, l + 0.25, 2 * l, 2*l + 3, 17 * l,
		-1e-12, -0.5, -l, -l - 0.25, -5*l - 3}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		x := rng.NormFloat64() * 3 * l
		if i < len(cases) {
			x = cases[i]
		}
		got, want := wrapPeriodic(x, l), ref(x, l)
		if got != want && !(got == 0 && want == 0) { // ±0.0 compare equal
			t.Fatalf("wrapPeriodic(%v) = %v, want %v", x, got, want)
		}
	}
}
