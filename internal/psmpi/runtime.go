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
// matching by exact (communicator, source, tag), per-pair non-overtaking
// order, eager vs rendezvous protocol selection by size, synchronous sends
// (Issend, xPic's MPI_Issend) completing only after the match, and
// collective operations that synchronise the participants' virtual clocks.
// There are no wildcard receives and no receive status: every receive names
// a source rank of the communicator's peer group, and returns the body only.
//
// Point-to-point traffic has one completion path: a blocking call is its
// non-blocking post plus Wait (Send is Isend plus Wait, Recv is Irecv plus
// Wait). Every message body is a []float64, nil for a sizes-only message,
// and it travels by reference: the receiver owns what it receives and
// returns it to the job's buffer pool with PutF64.
package psmpi

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"clusterbooster/internal/engine"
	"clusterbooster/internal/fabric"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// MaxUserTag is the largest tag application code may use; larger tags are
// reserved for the runtime's internal protocols (collectives, spawn).
const MaxUserTag = 1 << 20

// MainFunc is the entry point of a rank, the analogue of an MPI program's
// main. The returned error aborts the job and is reported in the Result.
type MainFunc func(p *Proc) error

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
	sys *machine.System
	net *fabric.Network
	cfg Config

	mu     sync.Mutex
	binReg map[string]MainFunc
	commID uint64
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

// placeSpawn places n spawned processes on module m: round-robin over the
// module's nodes in ID order, wrapping (several ranks per node) when n
// exceeds the module's node count.
func (rt *Runtime) placeSpawn(n int, m machine.Module) ([]*machine.Node, error) {
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
	// f64Free is the launch's []float64 buffer pool (GetF64/PutF64), under
	// the same discipline as envFree. Class k holds buffers of capacity at
	// least 1<<k, so messages whose length varies from step to step (particle
	// migration) reuse buffers as well as fixed-length ones (halo rows,
	// interface buffers, reduction accumulators).
	f64Free [bits.UintSize][][]float64
	// scratch is the launch's one kernel work buffer (Scratch), under the
	// same discipline. It is kept out of f64Free: a buffer returned there is
	// borrowed by the next, shorter message, so the kernel's next request
	// would find its class empty and allocate again.
	scratch []float64
}

// f64Class is the pool class serving a length-n request: the smallest k
// with 1<<k >= n.
func f64Class(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// f64Borrow is how many classes above its own a request may borrow from
// when its class is empty. Migration messages shrink and grow from step to
// step, and a shorter one then reuses a longer one's free buffer instead of
// growing the pool. Over the four experiments of the scale benchmark, the
// pool allocates 286k buffers (104 MiB) with exact classes, 229k (87 MiB)
// with one class of borrowing and 207k (85 MiB) with two; three or four
// classes save under 2% more.
const f64Borrow = 2

// GetF64 takes a length-n buffer from the job's pool (or allocates one).
// Its contents are unspecified: the caller overwrites it fully. The buffer
// goes back with PutF64, or travels as a message body (Send, Isend,
// Issend), whose receiver returns it. A zero-length request
// needs no buffer and gets nil. When n's class is empty, a free buffer up
// to f64Borrow classes larger serves it.
func (p *Proc) GetF64(n int) []float64 {
	if n == 0 {
		return nil
	}
	k := f64Class(n)
	for c := k; c <= k+f64Borrow && c < len(p.l.f64Free); c++ {
		free := p.l.f64Free[c]
		if m := len(free); m > 0 {
			buf := free[m-1]
			free[m-1] = nil
			p.l.f64Free[c] = free[:m-1]
			return buf[:n]
		}
	}
	return make([]float64, n, 1<<k)
}

// PutF64 returns a buffer whose last reader is done with it to the job's
// pool. Nothing may touch buf afterwards.
func (p *Proc) PutF64(buf []float64) {
	if cap(buf) == 0 {
		return
	}
	k := bits.Len(uint(cap(buf))) - 1
	p.l.f64Free[k] = append(p.l.f64Free[k], buf)
}

// Scratch returns a length-n work buffer that the launch owns, for a kernel
// that uses it without parking and never sends it. Its contents are
// unspecified, and it stays valid until the calling rank parks or calls
// Scratch again. Every rank of the launch shares it, so a launch holds one
// such buffer, sized for the largest request.
func (p *Proc) Scratch(n int) []float64 {
	if cap(p.l.scratch) < n {
		p.l.scratch = make([]float64, n)
	}
	return p.l.scratch[:n]
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
	// StartTime is the virtual time at which the ranks boot (default 0).
	StartTime vclock.Time
	// Failures, if set, arms deterministic node-failure injection for this
	// launch: the injector schedules a failure event into the job's kernel,
	// and when it fires the whole job tree is torn down with a NodeFailure
	// error (recover it with FailureOf). The injector keeps its RNG state
	// across launches, so a restart loop sees a continuing failure sequence.
	Failures *FailureInjector
}

// Result summarises a completed job tree.
type Result struct {
	// Makespan is the latest final virtual clock over all ranks, including
	// spawned children — the job's virtual wall time.
	Makespan vclock.Time
	// Err aggregates rank errors (nil if all ranks succeeded).
	Err error
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
	l := &launch{eng: engine.New()}
	world := rt.newWorld(l, spec.Nodes, spec.StartTime, nil)
	rt.startJob(l, world, spec.Main, spec.StartTime)
	spec.Failures.arm(l, spec.StartTime)
	l.eng.Run()
	l.wg.Wait()

	res := Result{Makespan: l.max}
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
func (rt *Runtime) newWorld(l *launch, nodes []*machine.Node, start vclock.Time, parent *Comm) *Comm {
	world := &Comm{id: rt.nextCommID()}
	for i, node := range nodes {
		p := newProc(rt, l, node, i)
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
