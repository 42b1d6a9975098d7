// Package psmpi is a ParaStation-MPI-like message-passing runtime for the
// simulated Cluster-Booster system. Each rank is a goroutine bound to a
// simulated node and owning a virtual clock, scheduled cooperatively by the
// job's discrete-event kernel (internal/engine): a rank runs until it blocks
// on a receive, a rendezvous completion or a device wait, parks in the
// kernel, and resumes exactly when its wakeup event fires in virtual-time
// order. Point-to-point operations are timed by the fabric model,
// collectives are built on top of p2p with the usual tree/ring algorithms,
// and MPI-2 dynamic process management (MPI_Comm_spawn) is provided by
// Spawn, which — exactly as in §III-A of the paper — starts a group of
// processes on the *other* module and returns an inter-communicator
// connecting parents and children.
//
// Semantics follow MPI where it matters for the reproduced application:
// matching by (communicator, source, tag) with wildcards, per-pair
// non-overtaking order, eager vs rendezvous protocol selection by size,
// synchronous sends (Issend) completing only after the match, and collective
// operations that synchronise the participants' virtual clocks.
package psmpi

import (
	"errors"
	"fmt"
	"sync"

	"clusterbooster/internal/engine"
	"clusterbooster/internal/fabric"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// AnySource matches messages from any source rank.
const AnySource = -1

// AnyTag matches messages with any tag.
const AnyTag = -1

// MaxUserTag is the largest tag application code may use; larger tags are
// reserved for the runtime's internal protocols (collectives, spawn).
const MaxUserTag = 1 << 20

// MainFunc is the entry point of a rank, the analogue of an MPI program's
// main. The returned error aborts the job and is reported in the Result.
type MainFunc func(p *Proc) error

// Placement decides where spawned processes run. The resource manager
// (internal/sched) provides the production implementation; the runtime falls
// back to simple round-robin placement when none is configured.
type Placement interface {
	// PlaceSpawn returns n nodes of the requested module for a spawn.
	PlaceSpawn(n int, m machine.Module) ([]*machine.Node, error)
}

// Config tunes runtime-level costs.
type Config struct {
	// SpawnOverhead is the virtual time MPI_Comm_spawn takes to boot the
	// child processes (scheduler round-trip, binary startup). ParaStation
	// spawns within a running daemon, so this is milliseconds, not seconds.
	SpawnOverhead vclock.Time
	// InterCommStagingGBs is the effective per-endpoint staging bandwidth of
	// inter-communicator traffic. Messages between process worlds created by
	// MPI_Comm_spawn do not take the zero-copy RDMA path in ParaStation;
	// they are staged through the MPI layer at memcpy-like rates on each
	// side. Calibrated so the xPic Cluster↔Booster exchange shows the 3-4 %
	// overhead the paper reports (§IV-C).
	InterCommStagingGBs float64
}

// DefaultConfig returns production defaults.
func DefaultConfig() Config {
	return Config{
		SpawnOverhead:       25 * vclock.Millisecond,
		InterCommStagingGBs: 0.55,
	}
}

// Runtime owns the processes, the registry of spawnable binaries and the
// connection to the hardware models.
type Runtime struct {
	sys  *machine.System
	net  *fabric.Network
	cfg  Config
	plac Placement

	mu         sync.Mutex
	binReg     map[string]MainFunc
	commID     uint64
	splitCache map[string]*Comm
	trace      *traceSink
}

// NewRuntime creates a runtime over the given system and network. A zero
// Config selects defaults.
func NewRuntime(sys *machine.System, net *fabric.Network, cfg Config) *Runtime {
	if cfg.SpawnOverhead == 0 {
		cfg.SpawnOverhead = DefaultConfig().SpawnOverhead
	}
	if cfg.InterCommStagingGBs == 0 {
		cfg.InterCommStagingGBs = DefaultConfig().InterCommStagingGBs
	}
	return &Runtime{
		sys:    sys,
		net:    net,
		cfg:    cfg,
		binReg: map[string]MainFunc{},
	}
}

// System returns the hardware inventory.
func (rt *Runtime) System() *machine.System { return rt.sys }

// Network returns the fabric.
func (rt *Runtime) Network() *fabric.Network { return rt.net }

// SetPlacement installs a placement service used by Spawn.
func (rt *Runtime) SetPlacement(p Placement) { rt.plac = p }

// Register makes a binary name spawnable, like installing an executable on
// the system. Registering an empty name or nil main panics.
func (rt *Runtime) Register(binary string, main MainFunc) {
	if binary == "" || main == nil {
		panic("psmpi: invalid binary registration")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.binReg[binary] = main
}

func (rt *Runtime) lookup(binary string) (MainFunc, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	m, ok := rt.binReg[binary]
	if !ok {
		return nil, fmt.Errorf("psmpi: binary %q not registered", binary)
	}
	return m, nil
}

func (rt *Runtime) nextCommID() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.commID++
	return rt.commID
}

// placeSpawn resolves spawn placement for one rank's job tree: the launch's
// own service (the job's live allocation) wins over the runtime-global one.
func (p *Proc) placeSpawn(n int, m machine.Module) ([]*machine.Node, error) {
	if p.l.plac != nil {
		return p.l.plac.PlaceSpawn(n, m)
	}
	return p.rt.placeSpawn(n, m)
}

// placeSpawn resolves spawn placement through the configured service or the
// built-in round-robin fallback.
func (rt *Runtime) placeSpawn(n int, m machine.Module) ([]*machine.Node, error) {
	if rt.plac != nil {
		return rt.plac.PlaceSpawn(n, m)
	}
	pool := rt.sys.Module(m)
	if len(pool) == 0 {
		return nil, fmt.Errorf("psmpi: module %v has no nodes", m)
	}
	nodes := make([]*machine.Node, n)
	for i := range nodes {
		nodes[i] = pool[i%len(pool)]
	}
	return nodes, nil
}

// launch tracks one job tree: the initial job plus everything it spawned,
// all scheduled by one execution kernel.
type launch struct {
	eng  *engine.Engine
	plac Placement // per-launch spawn placement, overriding the runtime's
	wg   sync.WaitGroup
	mu   sync.Mutex
	errs []error
	max  vclock.Time
	all  []*Proc

	// envFree is the launch's envelope free list. Only rank code touches
	// it, and the kernel runs one rank at a time, so no synchronisation is
	// needed. Envelopes that are still queued or attached to an abandoned
	// request when the job ends are simply left to the garbage collector.
	envFree []*envelope
	// f64Free pools the collectives' internal reduction buffers by length
	// (ReduceF64 accumulators, which travel rank to rank inside one
	// collective and die at the receiving end), under the same discipline
	// as envFree.
	f64Free map[int][][]float64
}

// getF64 takes a length-n buffer from the launch pool (or allocates one).
// The caller overwrites it fully.
func (p *Proc) getF64(n int) []float64 {
	m := p.l.f64Free
	if s := m[n]; len(s) > 0 {
		buf := s[len(s)-1]
		s[len(s)-1] = nil
		m[n] = s[:len(s)-1]
		return buf
	}
	return make([]float64, n)
}

// putF64 returns a buffer whose last reader is done with it to the launch
// pool.
func (p *Proc) putF64(buf []float64) {
	if p.l.f64Free == nil {
		p.l.f64Free = map[int][][]float64{}
	}
	m := p.l.f64Free
	m[len(buf)] = append(m[len(buf)], buf)
}

// newEnv takes an envelope from the launch free list (or allocates one).
func (p *Proc) newEnv() *envelope {
	free := p.l.envFree
	if n := len(free); n > 0 {
		e := free[n-1]
		p.l.envFree = free[:n-1]
		return e
	}
	return &envelope{}
}

// releaseEnv drops one reference to an envelope and recycles it when the
// last reader is done with it.
func (p *Proc) releaseEnv(e *envelope) {
	if e.refs--; e.refs == 0 {
		*e = envelope{}
		p.l.envFree = append(p.l.envFree, e)
	}
}

func (l *launch) record(p *Proc, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.errs = append(l.errs, fmt.Errorf("rank %d on %s: %w", p.rank, p.node.Name(), err))
	}
	if t := p.clock.Now(); t > l.max {
		l.max = t
	}
}

// LaunchSpec describes a job: one rank per entry of Nodes, all running Main.
type LaunchSpec struct {
	// Nodes lists the node of each rank; rank i runs on Nodes[i]. Several
	// ranks may share a node (multiple slots).
	Nodes []*machine.Node
	// Main is the program every rank executes.
	Main MainFunc
	// Args is an opaque argument block visible to ranks via Proc.Args.
	Args any
	// StartTime is the virtual time at which the ranks boot (default 0).
	StartTime vclock.Time
	// Failures, if set, arms deterministic node-failure injection for this
	// launch: the injector schedules a failure event into the job's kernel,
	// and when it fires the whole job tree is torn down with a NodeFailure
	// error (recover it with FailureOf). The injector keeps its RNG state
	// across launches, so a restart loop sees a continuing failure sequence.
	Failures *FailureInjector
	// Revocations, if set, schedules resource-manager allocation
	// revocations into this launch: at each Revocation.At, if any of its
	// nodes host ranks of the job tree, the whole job is torn down with a
	// recoverable *NodeFailure (see FailureOf) — the psmpi face of the
	// batch system's facility-level drain/requeue path.
	Revocations []Revocation
	// Placement, if set, decides spawn placement for this job tree only,
	// overriding the runtime-global service. The batch system passes the
	// job's live allocation here (sched.Allocation implements Placement), so
	// dynamic spawns stay inside the job's reservation.
	Placement Placement
}

// Result summarises a completed job tree.
type Result struct {
	// Makespan is the latest final virtual clock over all ranks, including
	// spawned children — the job's virtual wall time.
	Makespan vclock.Time
	// Ranks holds the final per-rank state of the initial job (not children).
	Ranks []RankResult
	// Engine reports the execution kernel's runtime counters for this job
	// (events processed, parks, peak parked ranks, host wall time).
	Engine engine.Stats
	// Err aggregates rank errors (nil if all ranks succeeded).
	Err error
}

// RankResult is the end-of-job state of one rank.
type RankResult struct {
	Rank  int
	Node  string
	Clock vclock.Time
	Stats Stats
}

// Launch runs a job to completion (including any jobs it spawns) and returns
// the aggregate result. It blocks the calling goroutine but consumes no
// virtual time of its own. Each launch owns one execution kernel; a job
// whose ranks all block with nothing pending fails with a deadlock error
// rather than hanging the process.
func (rt *Runtime) Launch(spec LaunchSpec) (Result, error) {
	if len(spec.Nodes) == 0 {
		return Result{}, errors.New("psmpi: launch with no nodes")
	}
	if spec.Main == nil {
		return Result{}, errors.New("psmpi: launch with nil main")
	}
	l := &launch{eng: engine.New(), plac: spec.Placement}
	world := rt.newWorld(l, spec.Nodes, spec.Args, spec.StartTime, nil)
	rt.startJob(l, world, spec.Main, spec.StartTime)
	spec.Failures.arm(l, spec.StartTime)
	l.armRevocations(spec.Revocations)
	l.eng.Run()
	l.wg.Wait()

	res := Result{Makespan: l.max, Engine: l.eng.Stats()}
	for _, p := range world.local {
		res.Ranks = append(res.Ranks, RankResult{
			Rank:  p.rank,
			Node:  p.node.Name(),
			Clock: p.clock.Now(),
			Stats: p.Stats,
		})
	}
	l.mu.Lock()
	if len(l.errs) > 0 {
		res.Err = errors.Join(l.errs...)
	}
	l.mu.Unlock()
	// Every rank goroutine has exited and all results are extracted: the
	// kernel (queue capacity, task structs, resume channels) goes back to the
	// pool for the next launch of the process.
	l.eng.Recycle()
	return res, res.Err
}

// newWorld builds a world communicator with one fresh proc per node entry.
func (rt *Runtime) newWorld(l *launch, nodes []*machine.Node, args any, start vclock.Time, parent *Comm) *Comm {
	world := &Comm{rt: rt, id: rt.nextCommID()}
	for i, node := range nodes {
		p := newProc(rt, l, node, i, args)
		p.clock.AdvanceTo(start)
		p.world = world
		p.parent = parent
		world.local = append(world.local, p)
	}
	world.collSeq = make([]uint64, len(world.local))
	for _, p := range world.local {
		p.commRank[world.id] = p.rank
	}
	l.mu.Lock()
	l.all = append(l.all, world.local...)
	l.mu.Unlock()
	return world
}

// startJob runs main on every rank of the world communicator. Each rank
// goroutine waits for its start event, runs under the kernel's cooperative
// schedule, and hands the baton on when it exits — after converting any
// panic (including a kernel deadlock report) into a recorded rank error.
// It runs before the kernel starts (the initial job) or from the spawning
// rank while it holds the baton (MPI_Comm_spawn).
func (rt *Runtime) startJob(l *launch, world *Comm, main MainFunc, start vclock.Time) {
	l.wg.Add(len(world.local))
	for _, p := range world.local {
		p.task = l.eng.NewRankTask(p.rank, p.node.Name())
		p.task.StartAt(start)
		go func(p *Proc) {
			defer l.wg.Done()
			defer p.task.Exit()
			defer func() {
				if r := recover(); r != nil {
					// A kernel teardown (failure injection) carries its cause;
					// everything else is a genuine rank panic.
					if tf, ok := r.(*engine.TaskFailure); ok {
						l.record(p, tf.Reason)
						return
					}
					l.record(p, fmt.Errorf("panic: %v", r))
				}
			}()
			p.task.WaitStart()
			err := main(p)
			l.record(p, err)
		}(p)
	}
}
