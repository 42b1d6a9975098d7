package xpic

import (
	"encoding/binary"
	"fmt"
	"math"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/psmpi"
	"clusterbooster/internal/vclock"
)

// CheckpointStore is the storage side of a resilient run — implemented by
// the SCR glue in internal/resilience. Methods run in rank goroutines under
// the job's execution kernel and advance the calling rank's clock by the
// modelled storage cost, so checkpoint and restore time lands in the job's
// virtual timeline (and therefore in the makespan) exactly where it occurs.
//
// rank is the global resilience rank: in mono mode the world rank; in split
// mode booster (particle) rank i is rank i and cluster (field) rank i is
// rank RanksPerSolver+i.
type CheckpointStore interface {
	// Save persists one rank's snapshot of a completed step. Called
	// collectively: every rank of the job saves the same step.
	Save(p *psmpi.Proc, rank, step int, data []byte) error
	// Complete finishes the collective checkpoint of a step (e.g. closes a
	// global SION container). Called by global rank 0 after all Saves.
	Complete(p *psmpi.Proc, step int) error
	// Load returns the snapshot a rank restarts from; only called when the
	// run begins at StartStep > 0.
	Load(p *psmpi.Proc, rank int) ([]byte, error)
}

// ResilientSpec describes one attempt of a resilient xPic run: a job that
// checkpoints through a CheckpointStore every CheckpointEvery steps, may be
// torn down mid-step by the armed failure injector, and — when StartStep > 0
// — restores every rank's state from the store before computing on.
type ResilientSpec struct {
	// Mode selects the execution scenario (Cluster, Booster, C+B).
	Mode Mode
	// Nodes are the solver nodes: the job's nodes in mono modes, the
	// Booster (particle-solver) nodes in split mode.
	Nodes []*machine.Node
	// RanksPerSolver is the rank count per solver (len(Nodes)).
	RanksPerSolver int
	Cfg            Config
	// StartTime offsets the attempt's virtual clock: a restart attempt
	// begins where the failure left off plus the restart overhead.
	StartTime vclock.Time
	// StartStep is the completed step to resume from (0 = fresh start).
	StartStep int
	// CheckpointEvery checkpoints after every k-th completed step (0 = no
	// checkpoints).
	CheckpointEvery int
	// Store is required when CheckpointEvery > 0 or StartStep > 0.
	Store CheckpointStore
	// Failures optionally arms node-failure injection for this attempt.
	Failures *psmpi.FailureInjector
}

func (spec ResilientSpec) validate() error {
	if len(spec.Nodes) != spec.RanksPerSolver {
		return fmt.Errorf("xpic: %d nodes for %d ranks per solver", len(spec.Nodes), spec.RanksPerSolver)
	}
	if err := spec.Cfg.Validate(spec.RanksPerSolver); err != nil {
		return err
	}
	if (spec.CheckpointEvery > 0 || spec.StartStep > 0) && spec.Store == nil {
		return fmt.Errorf("xpic: resilient run needs a checkpoint store")
	}
	if spec.StartStep < 0 || spec.StartStep >= spec.Cfg.Steps {
		return fmt.Errorf("xpic: start step %d outside [0,%d)", spec.StartStep, spec.Cfg.Steps)
	}
	return nil
}

// RunResilient executes one attempt of a resilient xPic run and returns its
// report. A run aborted by an injected failure returns the NodeFailure-
// carrying error from the launch (recover it with psmpi.FailureOf); the
// restart replay around repeated attempts lives in internal/resilience.
func RunResilient(rt *psmpi.Runtime, spec ResilientSpec) (Report, error) {
	if err := spec.validate(); err != nil {
		return Report{}, err
	}
	switch spec.Mode {
	case ClusterOnly, BoosterOnly:
		return runResilientMono(rt, spec)
	case SplitCB:
		return runResilientSplit(rt, spec)
	default:
		return Report{}, fmt.Errorf("xpic: unknown mode %v", spec.Mode)
	}
}

// checkpointDue says whether the state after `completed` steps is a
// checkpoint point.
func (spec ResilientSpec) checkpointDue(completed int) bool {
	return spec.CheckpointEvery > 0 && completed > 0 && completed%spec.CheckpointEvery == 0 &&
		completed < spec.Cfg.Steps // the final state needs no checkpoint
}

// checkpointCollective runs the collective checkpoint protocol of one world:
// quiesce, save every rank, then global rank 0 completes the step once all
// writes landed. grank is the caller's global resilience rank.
func checkpointCollective(p *psmpi.Proc, comm *psmpi.Comm, grank, step int, data []byte, store CheckpointStore) error {
	p.Barrier(comm)
	if err := store.Save(p, grank, step, data); err != nil {
		return fmt.Errorf("xpic: checkpoint step %d rank %d: %w", step, grank, err)
	}
	p.Barrier(comm)
	if grank == 0 {
		if err := store.Complete(p, step); err != nil {
			return fmt.Errorf("xpic: complete checkpoint step %d: %w", step, err)
		}
	}
	p.Barrier(comm)
	return nil
}

// runResilientMono is RunMono plus checkpoint/restore: the Listing-1 loop on
// the steppable Sim, snapshotting the full rank state at the cadence.
func runResilientMono(rt *psmpi.Runtime, spec ResilientSpec) (Report, error) {
	s := &sink{rep: Report{Mode: spec.Mode, RanksPerSolver: spec.RanksPerSolver, Steps: spec.Cfg.Steps}}
	res, err := rt.Launch(psmpi.LaunchSpec{
		Nodes:     spec.Nodes,
		StartTime: spec.StartTime,
		Failures:  spec.Failures,
		Main: func(p *psmpi.Proc) error {
			comm := p.World()
			sim := NewSim(p, comm, spec.Cfg)
			if spec.StartStep > 0 {
				data, err := spec.Store.Load(p, p.Rank())
				if err != nil {
					return err
				}
				if err := sim.Restore(data); err != nil {
					return err
				}
				if sim.Step != spec.StartStep {
					return fmt.Errorf("xpic: restored step %d, expected %d", sim.Step, spec.StartStep)
				}
			}
			for sim.Step < spec.Cfg.Steps {
				sim.Advance(p, comm)
				if spec.Cfg.Verbose && p.Rank() == 0 && (sim.Step-1)%50 == 0 {
					fmt.Printf("xpic[mono] step %4d  E_fld=%.6g  E_kin=%.6g  CG=%d\n",
						sim.Step-1, sim.FieldE, sim.KinE, sim.Fld.LastIters)
				}
				if spec.checkpointDue(sim.Step) {
					if err := checkpointCollective(p, comm, p.Rank(), sim.Step, sim.Snapshot(), spec.Store); err != nil {
						return err
					}
				}
			}
			reportSim(p, comm, sim, s)
			return nil
		},
	})
	if err != nil {
		return Report{}, err
	}
	s.finalize(spec.RanksPerSolver)
	s.rep.Makespan = res.Makespan
	return s.rep, nil
}

// runResilientSplit is RunSplit plus checkpoint/restore. Both sides
// checkpoint at the end of the same step: the booster side snapshots its
// particles (fields and moments are regenerated by the per-step exchange),
// the cluster side its grid arrays (fields after calculateB plus the moments
// that feed the next calculateE). Each world runs the collective protocol
// among itself; the booster side, which owns global rank 0, completes the
// step.
func runResilientSplit(rt *psmpi.Runtime, spec ResilientSpec) (Report, error) {
	n := spec.RanksPerSolver
	s := &sink{rep: Report{Mode: SplitCB, RanksPerSolver: n, Steps: spec.Cfg.Steps}}
	bin := fmt.Sprintf("xpic_cluster_resilient_%p", s)
	rt.Register(bin, func(p *psmpi.Proc) error {
		return resilientClusterMain(p, spec, s)
	})
	res, err := rt.Launch(psmpi.LaunchSpec{
		Nodes:     spec.Nodes,
		StartTime: spec.StartTime,
		Failures:  spec.Failures,
		Main: func(p *psmpi.Proc) error {
			return resilientBoosterMain(p, spec, s, bin)
		},
	})
	if err != nil {
		return Report{}, err
	}
	s.finalize(n)
	s.rep.Makespan = res.Makespan
	return s.rep, nil
}

// resilientBoosterMain is boosterMain with restore at entry and checkpoints
// at the cadence.
func resilientBoosterMain(p *psmpi.Proc, spec ResilientSpec, s *sink, clusterBinary string) error {
	cfg := spec.Cfg
	comm := p.World()
	ranks := comm.Size()
	inter, err := p.Spawn(comm, psmpi.SpawnSpec{
		Binary: clusterBinary,
		Procs:  ranks,
		Module: machine.Cluster,
	})
	if err != nil {
		return fmt.Errorf("xpic: spawning cluster side: %w", err)
	}
	peer := p.Rank()

	g := NewGrid(cfg.NX, cfg.NY, p.Rank(), ranks)
	pcl := NewParticleSolver(g, cfg)
	if spec.StartStep > 0 {
		data, err := spec.Store.Load(p, p.Rank())
		if err != nil {
			return err
		}
		step, err := restoreParticles(pcl, data)
		if err != nil {
			return err
		}
		if step != spec.StartStep {
			return fmt.Errorf("xpic: booster restored step %d, expected %d", step, spec.StartStep)
		}
	}

	var t Times
	var kinE float64
	for step := spec.StartStep; step < cfg.Steps; step++ {
		var fbuf []float64
		auxBefore := t.Aux
		phase(p, &t.Exchange, func() {
			req := p.Irecv(inter, peer, tagIfaceF)
			if cfg.NoOverlap {
				fbuf, _ = p.WaitF64(req)
			}
			if step%cfg.DiagEvery == 0 {
				phase(p, &t.Aux, func() {
					kinE = p.AllreduceScalar(comm, pcl.KineticEnergy(p), psmpi.OpSum)
				})
			}
			if !cfg.NoOverlap {
				fbuf, _ = p.WaitF64(req)
			}
		})
		t.Exchange -= t.Aux - auxBefore

		phase(p, &t.Exchange, func() {
			unpackFields(p, g, FieldNames, fbuf)
			g.ExchangeHalos(p, comm, FieldNames...)
		})

		phase(p, &t.Particle, func() {
			pcl.Move(p)
			pcl.Migrate(p, comm)
			pcl.Gather(p)
			g.ReduceMomentHalos(p, comm)
		})

		phase(p, &t.Exchange, func() {
			mbuf := packFields(p, g, MomentNames)
			req := p.IssendF64Shared(inter, peer, tagIfaceM, mbuf)
			p.Wait(req)
		})
		if cfg.Verbose && p.Rank() == 0 && step%50 == 0 {
			fmt.Printf("xpic[C+B booster] step %4d  E_kin=%.6g  particles=%d\n", step, kinE, pcl.TotalN())
		}

		if spec.checkpointDue(step + 1) {
			if err := checkpointCollective(p, comm, p.Rank(), step+1,
				snapParticles(pcl, step+1), spec.Store); err != nil {
				return err
			}
		}
	}

	finalKin := p.AllreduceScalar(comm, pcl.KineticEnergy(p), psmpi.OpSum)
	_ = kinE

	s.addTimes(Times{Particle: t.Particle, Exchange: t.Exchange, Aux: t.Aux}, 0)
	s.addPhysics(p.Rank(), 0, pickRank0(p, finalKin), pcl.TotalCharge(), checksum(pcl))
	return nil
}

// resilientClusterMain is clusterMain with restore at entry and checkpoints
// at the cadence. Its global resilience rank is RanksPerSolver + rank.
func resilientClusterMain(p *psmpi.Proc, spec ResilientSpec, s *sink) error {
	cfg := spec.Cfg
	comm := p.World()
	inter := p.Parent()
	if inter == nil {
		return fmt.Errorf("xpic: cluster side has no parent intercommunicator")
	}
	peer := p.Rank()
	grank := spec.RanksPerSolver + p.Rank()

	g := NewGrid(cfg.NX, cfg.NY, p.Rank(), comm.Size())
	fld := NewFieldSolver(g, cfg)
	gridState := append(append([]string(nil), FieldNames...), MomentNames...)
	if spec.StartStep > 0 {
		data, err := spec.Store.Load(p, grank)
		if err != nil {
			return err
		}
		step, err := restoreGrid(g, gridState, data)
		if err != nil {
			return err
		}
		if step != spec.StartStep {
			return fmt.Errorf("xpic: cluster restored step %d, expected %d", step, spec.StartStep)
		}
	}

	var t Times
	cgIters := 0
	var fieldE float64
	for step := spec.StartStep; step < cfg.Steps; step++ {
		phase(p, &t.Field, func() { fld.SolveE(p, comm) })
		cgIters += fld.LastIters

		auxBefore := t.Aux
		phase(p, &t.Exchange, func() {
			fbuf := packFields(p, g, FieldNames)
			req := p.IssendF64Shared(inter, peer, tagIfaceF, fbuf)
			if cfg.NoOverlap {
				p.Wait(req)
			}
			if step%cfg.DiagEvery == 0 {
				phase(p, &t.Aux, func() {
					fieldE = p.AllreduceScalar(comm, fld.FieldEnergy(p), psmpi.OpSum)
				})
			}
			if !cfg.NoOverlap {
				p.Wait(req)
			}
		})
		t.Exchange -= t.Aux - auxBefore

		phase(p, &t.Exchange, func() {
			req := p.Irecv(inter, peer, tagIfaceM)
			data, _ := p.WaitF64(req)
			unpackFields(p, g, MomentNames, data)
		})

		phase(p, &t.Field, func() { fld.SolveB(p, comm) })

		if spec.checkpointDue(step + 1) {
			if err := checkpointCollective(p, comm, grank, step+1,
				snapGrid(g, gridState, step+1), spec.Store); err != nil {
				return err
			}
		}
	}

	finalField := p.AllreduceScalar(comm, fld.FieldEnergy(p), psmpi.OpSum)
	_ = fieldE

	s.addTimes(Times{Field: t.Field, Exchange: t.Exchange, Aux: t.Aux}, cgIters)
	s.addPhysics(p.Rank(), pickRank0(p, finalField), 0, 0, 0)
	return nil
}

// Split-side snapshot encoding: the same little-endian f64-array framing as
// Sim.Snapshot, under distinct magics so a mixed-up restore fails loudly.
const (
	snapMagicParticles = uint32(0x78504350) // "xPCP"
	snapMagicGrid      = uint32(0x78504347) // "xPCG"
)

type snapEnc struct{ out []byte }

func (e *snapEnc) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.out = append(e.out, b[:]...)
}

func (e *snapEnc) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.out = append(e.out, b[:]...)
}

func (e *snapEnc) f64s(a []float64) {
	e.u64(uint64(len(a)))
	for _, v := range a {
		e.u64(math.Float64bits(v))
	}
}

type snapDec struct {
	data []byte
	pos  int
	what string
}

func (d *snapDec) fail(what string) error {
	return fmt.Errorf("xpic: corrupt %s snapshot (%s at offset %d)", d.what, what, d.pos)
}

func (d *snapDec) u32() (uint32, bool) {
	if d.pos+4 > len(d.data) {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(d.data[d.pos:])
	d.pos += 4
	return v, true
}

func (d *snapDec) u64() (uint64, bool) {
	if d.pos+8 > len(d.data) {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(d.data[d.pos:])
	d.pos += 8
	return v, true
}

func (d *snapDec) f64s() ([]float64, bool) {
	n, ok := d.u64()
	// Compare against the remaining bytes divided down, not 8*n: a corrupt
	// length field must fail the bounds check, not overflow it and panic in
	// make.
	if !ok || n > uint64((len(d.data)-d.pos)/8) {
		return nil, false
	}
	out := make([]float64, n)
	for i := range out {
		v, _ := d.u64()
		out[i] = math.Float64frombits(v)
	}
	return out, true
}

// snapParticles serialises the particle solver's restart state (the booster
// side's checkpoint payload).
func snapParticles(pcl *ParticleSolver, step int) []byte {
	var e snapEnc
	e.u32(snapMagicParticles)
	e.u32(snapVersion)
	e.u64(uint64(step))
	e.u64(uint64(len(pcl.Species)))
	for _, sp := range pcl.Species {
		e.u64(math.Float64bits(sp.Q))
		e.f64s(sp.X)
		e.f64s(sp.Y)
		e.f64s(sp.VX)
		e.f64s(sp.VY)
		e.f64s(sp.VZ)
	}
	return e.out
}

// restoreParticles loads a snapParticles payload.
func restoreParticles(pcl *ParticleSolver, data []byte) (int, error) {
	d := snapDec{data: data, what: "particle"}
	if m, ok := d.u32(); !ok || m != snapMagicParticles {
		return 0, d.fail("magic")
	}
	if v, ok := d.u32(); !ok || v != snapVersion {
		return 0, d.fail("version")
	}
	step, ok := d.u64()
	if !ok {
		return 0, d.fail("step")
	}
	nSpec, ok := d.u64()
	if !ok || int(nSpec) != len(pcl.Species) {
		return 0, d.fail("species count")
	}
	for _, sp := range pcl.Species {
		q, ok := d.u64()
		if !ok {
			return 0, d.fail("charge")
		}
		sp.Q = math.Float64frombits(q)
		if sp.X, ok = d.f64s(); !ok {
			return 0, d.fail("X")
		}
		if sp.Y, ok = d.f64s(); !ok {
			return 0, d.fail("Y")
		}
		if sp.VX, ok = d.f64s(); !ok {
			return 0, d.fail("VX")
		}
		if sp.VY, ok = d.f64s(); !ok {
			return 0, d.fail("VY")
		}
		if sp.VZ, ok = d.f64s(); !ok {
			return 0, d.fail("VZ")
		}
	}
	return int(step), nil
}

// snapGrid serialises the named grid arrays (the cluster side's checkpoint
// payload: fields plus the moments feeding the next solve).
func snapGrid(g *Grid, names []string, step int) []byte {
	var e snapEnc
	e.u32(snapMagicGrid)
	e.u32(snapVersion)
	e.u64(uint64(step))
	e.u64(uint64(len(names)))
	for _, name := range names {
		e.f64s(g.F(name))
	}
	return e.out
}

// restoreGrid loads a snapGrid payload into the same named arrays.
func restoreGrid(g *Grid, names []string, data []byte) (int, error) {
	d := snapDec{data: data, what: "grid"}
	if m, ok := d.u32(); !ok || m != snapMagicGrid {
		return 0, d.fail("magic")
	}
	if v, ok := d.u32(); !ok || v != snapVersion {
		return 0, d.fail("version")
	}
	step, ok := d.u64()
	if !ok {
		return 0, d.fail("step")
	}
	nNames, ok := d.u64()
	if !ok || int(nNames) != len(names) {
		return 0, d.fail("array count")
	}
	for _, name := range names {
		a, ok := d.f64s()
		if !ok || len(a) != len(g.F(name)) {
			return 0, d.fail("array " + name)
		}
		copy(g.F(name), a)
	}
	return int(step), nil
}
