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
// rank len(Nodes)+i.
type CheckpointStore interface {
	// Save persists one rank's snapshot of a completed step. Called
	// collectively: every rank of the job saves the same step. The store
	// may keep data without copying it: the caller makes a fresh snapshot
	// per call and never writes to it again.
	Save(p *psmpi.Proc, rank, step int, data []byte) error
	// Complete finishes the collective checkpoint of a step (e.g. closes a
	// global SION container). Called by global rank 0 after all Saves.
	Complete(p *psmpi.Proc, step int) error
	// Load returns the snapshot a rank restarts from; only called when the
	// run begins at StartStep > 0.
	Load(p *psmpi.Proc, rank int) ([]byte, error)
}

// Spec describes one attempt of an xPic run in one of the three scenarios
// of §IV. A plain run leaves the resilience fields zero; a resilient attempt
// checkpoints through a CheckpointStore every CheckpointEvery steps, may be
// torn down mid-step by the armed failure injector, and — when StartStep > 0
// — restores every rank's state from the store before computing on.
type Spec struct {
	// Mode selects the execution scenario (Cluster, Booster, C+B).
	Mode Mode
	// Nodes are the solver nodes, one rank each: the job's nodes in mono
	// modes, the Booster (particle-solver) nodes in split mode.
	Nodes []*machine.Node
	Cfg   Config
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

func (spec Spec) validate() error {
	if err := spec.Cfg.Validate(len(spec.Nodes)); err != nil {
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

// Run executes one attempt of an xPic run and returns its report. A run
// aborted by an injected failure returns the NodeFailure-carrying error from
// the launch (recover it with psmpi.FailureOf); the restart replay around
// repeated attempts lives in internal/resilience.
func Run(rt *psmpi.Runtime, spec Spec) (Report, error) {
	if err := spec.validate(); err != nil {
		return Report{}, err
	}
	switch spec.Mode {
	case ClusterOnly, BoosterOnly:
		return runMono(rt, spec)
	case SplitCB:
		return runSplit(rt, spec)
	default:
		return Report{}, fmt.Errorf("xpic: unknown mode %v", spec.Mode)
	}
}

// checkpointDue says whether the state after `completed` steps is a
// checkpoint point.
func (spec *Spec) checkpointDue(completed int) bool {
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

// runMono executes xPic in its traditional configuration (Listing 1 of the
// paper): field solver and particle solver run on the same nodes and
// communicate through the in-memory interface buffers. Cluster nodes give
// the paper's "Cluster" scenario, Booster nodes the "Booster" scenario. The
// loop runs on the steppable Sim, snapshotting the full rank state at the
// checkpoint cadence.
func runMono(rt *psmpi.Runtime, spec Spec) (Report, error) {
	n := len(spec.Nodes)
	s := &sink{rep: Report{Mode: spec.Mode, RanksPerSolver: n, Steps: spec.Cfg.Steps}}
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
	s.finalize(n)
	s.rep.Makespan = res.Makespan
	return s.rep, nil
}

// reportSim folds a finished Sim into the run report: final-state energy
// diagnostics (computed identically in mono and split modes) plus per-phase
// times and physics fingerprints.
func reportSim(p *psmpi.Proc, comm *psmpi.Comm, sim *Sim, s *sink) {
	finalField := p.AllreduceScalar(comm, sim.Fld.FieldEnergy(p), psmpi.OpSum)
	finalKin := p.AllreduceScalar(comm, sim.Pcl.KineticEnergy(p), psmpi.OpSum)
	s.addTimes(sim.T, sim.CGIters)
	s.addPhysics(p.Rank(), pickRank0(p, finalField), pickRank0(p, finalKin),
		sim.Pcl.TotalCharge(), sim.Checksum())
}

// pickRank0 keeps globally-reduced diagnostics from rank 0 only (they are
// identical on all ranks after the allreduce).
func pickRank0(p *psmpi.Proc, v float64) float64 {
	if p.Rank() == 0 {
		return v
	}
	return 0
}

// runSplit executes xPic in the Cluster-Booster mode of §IV-B (Listings 2–4
// of the paper): the particle solver runs on the Booster nodes, the field
// solver on Cluster nodes. Exactly as on the prototype, "the execution script
// calls the Booster code, and this in turn performs a spawn with the name of
// the Cluster executable": the Booster job spawns the Cluster binary through
// MPI_Comm_spawn and the two sides exchange fields and moments with
// non-blocking Issend/Irecv on the resulting inter-communicator, overlapping
// the transfers with auxiliary computations. Slab i of the grid pairs
// Booster rank i (particles) with Cluster rank i (fields).
//
// Both sides checkpoint at the end of the same step: the booster side
// snapshots its particles (fields and moments are regenerated by the
// per-step exchange), the cluster side its grid arrays (fields after
// calculateB plus the moments that feed the next calculateE). Each world
// runs the collective protocol among itself; the booster side, which owns
// global rank 0, completes the step.
func runSplit(rt *psmpi.Runtime, spec Spec) (Report, error) {
	n := len(spec.Nodes)
	s := &sink{rep: Report{Mode: SplitCB, RanksPerSolver: n, Steps: spec.Cfg.Steps}}
	bin := fmt.Sprintf("xpic_cluster_%p", s)
	rt.Register(bin, func(p *psmpi.Proc) error {
		return clusterMain(p, &spec, s)
	})
	res, err := rt.Launch(psmpi.LaunchSpec{
		Nodes:     spec.Nodes,
		StartTime: spec.StartTime,
		Failures:  spec.Failures,
		Main: func(p *psmpi.Proc) error {
			return boosterMain(p, &spec, s, bin)
		},
	})
	if err != nil {
		return Report{}, err
	}
	s.finalize(n)
	s.rep.Makespan = res.Makespan
	return s.rep, nil
}

// boosterMain is the Booster executable of split mode (Listing 2): it spawns
// the Cluster binary, then runs the particle side of every step, restoring
// at entry and checkpointing at the cadence.
func boosterMain(p *psmpi.Proc, spec *Spec, s *sink, clusterBinary string) error {
	cfg := &spec.Cfg
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
	pcl := NewParticleSolver(g, *cfg)
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
			if step%cfg.DiagEvery == 0 {
				phase(p, &t.Aux, func() {
					kinE = p.AllreduceScalar(comm, pcl.KineticEnergy(p), psmpi.OpSum)
				})
			}
			fbuf = p.Wait(req)
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
			req := p.Issend(inter, peer, tagIfaceM, mbuf)
			p.Wait(req)
		})

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

// clusterMain is the spawned Cluster executable of split mode (Listing 3):
// the field side of every step, restoring at entry and checkpointing at the
// cadence. Its global resilience rank is len(spec.Nodes) + rank.
func clusterMain(p *psmpi.Proc, spec *Spec, s *sink) error {
	cfg := &spec.Cfg
	comm := p.World()
	inter := p.Parent()
	if inter == nil {
		return fmt.Errorf("xpic: cluster side has no parent intercommunicator")
	}
	peer := p.Rank()
	grank := len(spec.Nodes) + p.Rank()

	g := NewGrid(cfg.NX, cfg.NY, p.Rank(), comm.Size())
	fld := NewFieldSolver(g, *cfg)
	if spec.StartStep > 0 {
		data, err := spec.Store.Load(p, grank)
		if err != nil {
			return err
		}
		step, err := restoreGrid(g, allFields, data)
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
			req := p.Issend(inter, peer, tagIfaceF, fbuf)
			if step%cfg.DiagEvery == 0 {
				phase(p, &t.Aux, func() {
					fieldE = p.AllreduceScalar(comm, fld.FieldEnergy(p), psmpi.OpSum)
				})
			}
			p.Wait(req)
		})
		t.Exchange -= t.Aux - auxBefore

		phase(p, &t.Exchange, func() {
			req := p.Irecv(inter, peer, tagIfaceM)
			data := p.Wait(req)
			unpackFields(p, g, MomentNames, data)
		})

		phase(p, &t.Field, func() { fld.SolveB(p, comm) })

		if spec.checkpointDue(step + 1) {
			if err := checkpointCollective(p, comm, grank, step+1,
				snapGrid(g, allFields, step+1), spec.Store); err != nil {
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

// snapEnc appends to out, which the snapshot functions allocate once at the
// snapshot's exact size (snapHeaderLen, arraysLen, speciesLen).
type snapEnc struct{ out []byte }

func (e *snapEnc) u32(v uint32) { e.out = binary.LittleEndian.AppendUint32(e.out, v) }

func (e *snapEnc) u64(v uint64) { e.out = binary.LittleEndian.AppendUint64(e.out, v) }

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

// snapHeaderLen is the byte length of snapEnc.header.
const snapHeaderLen = 4 + 4 + 8

// header encodes a snapshot's magic, format version and step.
func (e *snapEnc) header(magic uint32, step int) {
	e.u32(magic)
	e.u32(snapVersion)
	e.u64(uint64(step))
}

// arraysLen is the byte length of snapEnc.arrays.
func arraysLen(g *Grid, fields []Field) int {
	n := 8
	for _, f := range fields {
		n += 8 + 8*len(g.F(f))
	}
	return n
}

// arrays encodes the grid arrays of fields.
func (e *snapEnc) arrays(g *Grid, fields []Field) {
	e.u64(uint64(len(fields)))
	for _, f := range fields {
		e.f64s(g.F(f))
	}
}

// speciesLen is the byte length of snapEnc.species.
func speciesLen(pcl *ParticleSolver) int {
	n := 8
	for _, sp := range pcl.Species {
		n += 8 + 5*8 + 8*(len(sp.X)+len(sp.Y)+len(sp.VX)+len(sp.VY)+len(sp.VZ))
	}
	return n
}

// species encodes every species' charge and particle columns.
func (e *snapEnc) species(pcl *ParticleSolver) {
	e.u64(uint64(len(pcl.Species)))
	for _, sp := range pcl.Species {
		e.u64(math.Float64bits(sp.Q))
		e.f64s(sp.X)
		e.f64s(sp.Y)
		e.f64s(sp.VX)
		e.f64s(sp.VY)
		e.f64s(sp.VZ)
	}
}

// header decodes and checks a header written by snapEnc.header and returns
// the step.
func (d *snapDec) header(magic uint32) (int, error) {
	if m, ok := d.u32(); !ok || m != magic {
		return 0, d.fail("magic")
	}
	if v, ok := d.u32(); !ok || v != snapVersion {
		return 0, d.fail("version")
	}
	step, ok := d.u64()
	if !ok {
		return 0, d.fail("step")
	}
	return int(step), nil
}

// arrays decodes snapEnc.arrays output into the same grid arrays.
func (d *snapDec) arrays(g *Grid, fields []Field) error {
	n, ok := d.u64()
	if !ok || int(n) != len(fields) {
		return d.fail("array count")
	}
	for _, f := range fields {
		dst := g.F(f)
		n, ok := d.u64()
		if !ok || n != uint64(len(dst)) || len(dst) > (len(d.data)-d.pos)/8 {
			return d.fail("array " + f.String())
		}
		src := d.data[d.pos:]
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
		d.pos += 8 * len(dst)
	}
	return nil
}

// species decodes snapEnc.species output into the solver's species. The
// particle loops index every column by the X index, so columns of unequal
// length are rejected as corruption.
func (d *snapDec) species(pcl *ParticleSolver) error {
	n, ok := d.u64()
	if !ok || int(n) != len(pcl.Species) {
		return d.fail("species count")
	}
	for _, sp := range pcl.Species {
		q, ok := d.u64()
		if !ok {
			return d.fail("charge")
		}
		var cols [5][]float64
		for i, what := range [5]string{"X", "Y", "VX", "VY", "VZ"} {
			if cols[i], ok = d.f64s(); !ok {
				return d.fail(what)
			}
			if len(cols[i]) != len(cols[0]) {
				return d.fail("ragged " + what)
			}
		}
		sp.Q = math.Float64frombits(q)
		sp.X, sp.Y, sp.VX, sp.VY, sp.VZ = cols[0], cols[1], cols[2], cols[3], cols[4]
	}
	return nil
}

// snapParticles serialises the particle solver's restart state (the booster
// side's checkpoint payload).
func snapParticles(pcl *ParticleSolver, step int) []byte {
	e := snapEnc{make([]byte, 0, snapHeaderLen+speciesLen(pcl))}
	e.header(snapMagicParticles, step)
	e.species(pcl)
	return e.out
}

// restoreParticles loads a snapParticles payload.
func restoreParticles(pcl *ParticleSolver, data []byte) (int, error) {
	d := snapDec{data: data, what: "particle"}
	step, err := d.header(snapMagicParticles)
	if err != nil {
		return 0, err
	}
	return step, d.species(pcl)
}

// snapGrid serialises the grid arrays of fields (the cluster side's
// checkpoint payload: fields plus the moments feeding the next solve).
func snapGrid(g *Grid, fields []Field, step int) []byte {
	e := snapEnc{make([]byte, 0, snapHeaderLen+arraysLen(g, fields))}
	e.header(snapMagicGrid, step)
	e.arrays(g, fields)
	return e.out
}

// restoreGrid loads a snapGrid payload into the same grid arrays.
func restoreGrid(g *Grid, fields []Field, data []byte) (int, error) {
	d := snapDec{data: data, what: "grid"}
	step, err := d.header(snapMagicGrid)
	if err != nil {
		return 0, err
	}
	return step, d.arrays(g, fields)
}
