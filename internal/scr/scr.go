// Package scr reproduces the checkpoint/restart layer of the DEEP-ER
// prototype (§III-D of the paper): the Scalable Checkpoint/Restart library,
// extended in DEEP-ER to decide where and how often checkpoints are taken
// based on a failure model of the machine.
//
// Checkpoints are multi-level, cheapest first:
//
//	LevelLocal  — the rank's own NVMe (fast, lost with the node)
//	LevelBuddy  — a copy in a companion node's NVMe via SIONlib (survives a
//	              single node loss)
//	LevelGlobal — a SION container on the BeeGFS global file system
//	              (survives anything, slowest)
//
// The manager keeps the checkpoint database, applies the level cadence,
// computes the Young/Daly optimal interval from the failure model, and
// serves restarts from the best surviving level after injected failures.
//
// A Manager needs no locking: every caller runs under one discrete-event
// kernel (internal/engine), which serialises the rank goroutines of a job by
// construction — exactly one holds the execution baton at any moment, and
// failure injection itself runs as a kernel callback holding that same
// baton. Host-parallel sweep scenarios each boot their own system and their
// own Manager, and the restart replay loop drives its Manager from a single
// goroutine between launches, so no two goroutines ever touch one Manager
// concurrently. (The manager held a sync.Mutex when ranks ran free under the
// pre-kernel execution model; the cooperative scheduler made it dead weight.)
package scr

import (
	"fmt"
	"math"

	"clusterbooster/internal/beegfs"
	"clusterbooster/internal/fabric"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/nvme"
	"clusterbooster/internal/sion"
	"clusterbooster/internal/vclock"
)

// Level identifies a checkpoint level.
type Level int

const (
	// LevelLocal is the rank-local NVMe checkpoint.
	LevelLocal Level = iota
	// LevelBuddy is the redundant copy on the companion node.
	LevelBuddy
	// LevelGlobal is the parallel-file-system checkpoint.
	LevelGlobal
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelLocal:
		return "local"
	case LevelBuddy:
		return "buddy"
	case LevelGlobal:
		return "global"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Config tunes the manager.
type Config struct {
	// BuddyEvery takes a buddy-level copy every k-th checkpoint (0 disables).
	BuddyEvery int
	// GlobalEvery takes a global-level checkpoint every k-th checkpoint
	// (0 disables).
	GlobalEvery int
}

// Manager is the per-job checkpoint coordinator.
type Manager struct {
	cfg   Config
	net   *fabric.Network
	fs    *beegfs.FS
	nodes []*machine.Node // rank → node
	devs  map[int]*nvme.Device

	seq     int // checkpoint counter (for cadence)
	records map[int]*record
	writers map[string]*sion.Writer // open global containers by path
	// payload store for local/buddy levels (content travels with validity).
	// A checkpoint taken at both levels shares one snapshot between the two
	// maps: entries are never mutated in place, and restores hand out copies.
	local map[string][]byte
	buddy map[string][]byte
}

type record struct {
	step        int
	levels      []Level // the plan BeginCheckpoint decided for this step
	localValid  []bool
	buddyValid  []bool
	globalValid []bool
	// globalSealed is set by SubmitCompleteGlobal: chunks written into a SION
	// container that was never closed (the job died mid-checkpoint) are not
	// restorable, so BestRestart must not count them.
	globalSealed bool
	// globalWrote tracks which ranks wrote into the currently open container
	// (reset per round). A rank writing twice means a restart replay reached
	// this step again: the stale container must be replaced, not appended to.
	globalWrote []bool
	globalPath  string
}

// New builds a manager for a job whose rank i runs on nodes[i]; devs maps
// node IDs to their NVMe devices. fs may be nil if GlobalEvery is 0.
func New(cfg Config, net *fabric.Network, fs *beegfs.FS, nodes []*machine.Node, devs map[int]*nvme.Device) (*Manager, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("scr: no ranks")
	}
	if cfg.GlobalEvery > 0 && fs == nil {
		return nil, fmt.Errorf("scr: global level enabled without a file system")
	}
	for _, n := range nodes {
		if _, ok := devs[n.ID]; !ok {
			return nil, fmt.Errorf("scr: node %s has no NVMe device", n.Name())
		}
	}
	return &Manager{
		cfg:     cfg,
		net:     net,
		fs:      fs,
		nodes:   nodes,
		devs:    devs,
		records: map[int]*record{},
		writers: map[string]*sion.Writer{},
		local:   map[string][]byte{},
		buddy:   map[string][]byte{},
	}, nil
}

// BuddyOf returns the companion rank used for buddy checkpoints: the
// neighbour in a ring over the ranks, guaranteed to live on another node
// whenever more than one node is in use.
func (m *Manager) BuddyOf(rank int) int { return (rank + 1) % len(m.nodes) }

func key(step, rank int) string { return fmt.Sprintf("scr/step%d/rank%d", step, rank) }

// BeginCheckpoint opens the checkpoint for the given step and decides which
// levels it writes, per the configured cadence. The call is idempotent per
// step: the first call advances the cadence counter and fixes the plan, and
// every later call — another rank of the same collective checkpoint, or a
// replay re-checkpointing the step after a restart — returns that original
// plan unchanged. Tying the cadence to the step rather than the call count
// keeps level selection stable across failure/restart replays.
func (m *Manager) BeginCheckpoint(step int) []Level {
	if rec, ok := m.records[step]; ok {
		return append([]Level(nil), rec.levels...)
	}
	m.seq++
	levels := []Level{LevelLocal}
	if m.cfg.BuddyEvery > 0 && m.seq%m.cfg.BuddyEvery == 0 {
		levels = append(levels, LevelBuddy)
	}
	if m.cfg.GlobalEvery > 0 && m.seq%m.cfg.GlobalEvery == 0 {
		levels = append(levels, LevelGlobal)
	}
	n := len(m.nodes)
	m.records[step] = &record{
		step:        step,
		levels:      levels,
		localValid:  make([]bool, n),
		buddyValid:  make([]bool, n),
		globalValid: make([]bool, n),
		globalPath:  fmt.Sprintf("/scr/ckpt-step%d.sion", step),
	}
	return append([]Level(nil), levels...)
}

// SubmitCheckpoint issues one rank's state for a step at the given levels
// after dep without parking, returning the token of the slowest requested
// level. The levels are submitted concurrently from dep — a local NVMe put,
// a buddy copy and a global container write all overlap, joining at a
// single token — and the rank's node is taken from the manager's rank map,
// so post-run pricing needs no actor. A rank in a kernel job parks on the
// token with ioev.Await; callers that must record the durable instant
// before yielding — a failure may kill the rank mid-park — read it first.
//
// The manager keeps data itself, not a copy, for the local and buddy
// levels: the caller hands it over and must not write to it again. Several
// ranks and steps may share one buffer under that rule. SubmitRestore
// returns a copy, so a restored rank never writes into a stored checkpoint.
func (m *Manager) SubmitCheckpoint(dep ioev.Op, rank, step int, data []byte, levels []Level) (ioev.Op, error) {
	rec, ok := m.records[step]
	if !ok {
		return ioev.Op{}, fmt.Errorf("scr: checkpoint for step %d not begun", step)
	}
	node := m.nodes[rank]
	start := dep
	done := start
	for _, lv := range levels {
		switch lv {
		case LevelLocal:
			op, err := m.devs[node.ID].SubmitPut(start, key(step, rank), int64(len(data)))
			if err != nil {
				return ioev.Op{}, fmt.Errorf("scr: local level: %w", err)
			}
			m.local[key(step, rank)] = data
			rec.localValid[rank] = true
			done = ioev.After(done, op)
		case LevelBuddy:
			b := m.BuddyOf(rank)
			bn := m.nodes[b]
			if bn.ID == node.ID {
				// Single-node job: a buddy copy adds nothing.
				continue
			}
			op, err := sion.SubmitBuddy(m.net, node, bn, m.devs[bn.ID], key(step, rank)+"/buddy", int64(len(data)), start)
			if err != nil {
				return ioev.Op{}, fmt.Errorf("scr: buddy level: %w", err)
			}
			m.buddy[key(step, rank)] = data
			rec.buddyValid[rank] = true
			done = ioev.After(done, op)
		case LevelGlobal:
			op, err := m.submitGlobal(rec, rank, data, start)
			if err != nil {
				return ioev.Op{}, err
			}
			done = ioev.After(done, op)
		default:
			return ioev.Op{}, fmt.Errorf("scr: unknown level %v", lv)
		}
	}
	return done, nil
}

// submitGlobal streams one rank's chunk into the step's SION container,
// issued after dep without parking. Containers are created lazily and
// sealed by SubmitCompleteGlobal. A new checkpoint round for the step — a
// restart replay re-executing it, detected by a rank writing twice, or a
// fresh write after a seal — replaces the container: the create truncates
// the path, so the previous round's chunks (and their validity) are gone.
func (m *Manager) submitGlobal(rec *record, rank int, data []byte, dep ioev.Op) (ioev.Op, error) {
	w := m.writers[rec.globalPath]
	if w != nil && rec.globalWrote[rank] {
		delete(m.writers, rec.globalPath)
		w = nil
	}
	if w == nil {
		var err error
		// The create's metadata round trip is deliberately not joined: the
		// container write below prices the rank's durability, matching
		// SIONlib's collective open hiding the create behind the first
		// chunk.
		w, _, err = sion.SubmitCreate(m.fs, rec.globalPath, len(m.nodes), 64<<10, m.nodes[rank], dep)
		if err != nil {
			return ioev.Op{}, fmt.Errorf("scr: global container: %w", err)
		}
		m.writers[rec.globalPath] = w
		rec.globalSealed = false
		rec.globalWrote = make([]bool, len(m.nodes))
		for i := range rec.globalValid {
			rec.globalValid[i] = false
		}
	}
	op, err := w.SubmitWriteTask(dep, rank, data, m.nodes[rank])
	if err != nil {
		return ioev.Op{}, fmt.Errorf("scr: global level: %w", err)
	}
	rec.globalValid[rank] = true
	rec.globalWrote[rank] = true
	return op, nil
}

// SubmitCompleteGlobal seals the step's global container after dep without
// parking (call once after all ranks contributed, e.g. from rank 0 after a
// barrier), returning the seal's completion token — dep itself when there
// is nothing to close. Only a completed container is restorable: a failure
// that strikes between the writes and the seal leaves the step's global
// level unusable, and BestRestart skips it.
func (m *Manager) SubmitCompleteGlobal(dep ioev.Op, step, rank int) (ioev.Op, error) {
	rec, ok := m.records[step]
	if !ok {
		return dep, nil
	}
	w := m.writers[rec.globalPath]
	delete(m.writers, rec.globalPath)
	rec.globalSealed = true
	if w == nil {
		return dep, nil
	}
	return w.SubmitClose(dep, m.nodes[rank])
}

// FailNode models the loss of a node: its NVMe contents vanish, invalidating
// the local level of every rank on it and the buddy copies it held. Global
// checkpoints that were mid-write — container open, not yet sealed — die
// with the job: their writers are discarded and their chunks invalidated,
// so the restart replay re-creates the container from scratch.
func (m *Manager) FailNode(nodeID int) {
	if dev, ok := m.devs[nodeID]; ok {
		dev.DropAll()
	}
	for _, rec := range m.records {
		if _, open := m.writers[rec.globalPath]; open {
			delete(m.writers, rec.globalPath)
			rec.globalWrote = nil
			for i := range rec.globalValid {
				rec.globalValid[i] = false
			}
		}
	}
	for _, rec := range m.records {
		for rank, node := range m.nodes {
			if node.ID != nodeID {
				continue
			}
			rec.localValid[rank] = false
			delete(m.local, key(rec.step, rank))
		}
		// Buddy copies *held on* the failed node protect the previous rank
		// in the ring; those are gone too.
		for rank := range m.nodes {
			if m.nodes[m.BuddyOf(rank)].ID == nodeID {
				rec.buddyValid[rank] = false
				delete(m.buddy, key(rec.step, rank))
			}
		}
	}
}

// BestRestart returns the newest step from which every rank can restore
// (from any level), and per-rank levels to use. ok is false if no complete
// checkpoint survives.
func (m *Manager) BestRestart() (step int, levels []Level, ok bool) {
	best := -1
	var bestLv []Level
	for s, rec := range m.records {
		if s <= best {
			continue
		}
		lv := make([]Level, len(m.nodes))
		good := true
		for rank := range m.nodes {
			switch {
			case rec.localValid[rank]:
				lv[rank] = LevelLocal
			case rec.buddyValid[rank]:
				lv[rank] = LevelBuddy
			case rec.globalValid[rank] && rec.globalSealed:
				lv[rank] = LevelGlobal
			default:
				good = false
			}
			if !good {
				break
			}
		}
		if good {
			best, bestLv = s, lv
		}
	}
	if best < 0 {
		return 0, nil, false
	}
	return best, bestLv, true
}

// SubmitRestore issues one rank's restore after dep without parking,
// returning the data and the arrival token.
func (m *Manager) SubmitRestore(dep ioev.Op, rank, step int, lv Level) ([]byte, ioev.Op, error) {
	node := m.nodes[rank]
	switch lv {
	case LevelLocal:
		data, ok := m.local[key(step, rank)]
		if !ok {
			return nil, ioev.Op{}, fmt.Errorf("scr: no local checkpoint for rank %d step %d", rank, step)
		}
		op, err := m.devs[node.ID].SubmitRead(dep, key(step, rank), int64(len(data)))
		if err != nil {
			return nil, ioev.Op{}, err
		}
		return append([]byte(nil), data...), op, nil
	case LevelBuddy:
		data, ok := m.buddy[key(step, rank)]
		if !ok {
			return nil, ioev.Op{}, fmt.Errorf("scr: no buddy checkpoint for rank %d step %d", rank, step)
		}
		bn := m.nodes[m.BuddyOf(rank)]
		op, err := m.devs[bn.ID].SubmitRead(dep, key(step, rank)+"/buddy", int64(len(data)))
		if err != nil {
			return nil, ioev.Op{}, err
		}
		// Ship it back across the fabric to the restarting rank.
		_, arrival := m.net.Rendezvous(bn, node, len(data), op.Time(), op.Time())
		return append([]byte(nil), data...), ioev.At(arrival), nil
	case LevelGlobal:
		rec, ok := m.records[step]
		if !ok {
			return nil, ioev.Op{}, fmt.Errorf("scr: unknown step %d", step)
		}
		r, t, err := sion.SubmitOpenRead(m.fs, rec.globalPath, node, dep)
		if err != nil {
			return nil, ioev.Op{}, fmt.Errorf("scr: global restore: %w", err)
		}
		data, t2, err := r.SubmitReadTask(t, rank, node)
		if err != nil {
			return nil, ioev.Op{}, err
		}
		return data, t2, nil
	default:
		return nil, ioev.Op{}, fmt.Errorf("scr: unknown level %v", lv)
	}
}

// OptimalInterval returns the Young/Daly checkpoint interval
// √(2·δ·M) for checkpoint cost δ and system MTBF M — the planning rule the
// DEEP-ER SCR extension applies.
func OptimalInterval(checkpointCost, mtbf vclock.Time) vclock.Time {
	if checkpointCost <= 0 || mtbf <= 0 {
		return 0
	}
	return vclock.Time(math.Sqrt(2 * checkpointCost.Seconds() * mtbf.Seconds()))
}
