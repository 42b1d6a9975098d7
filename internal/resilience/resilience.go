// Package resilience closes the loop of §III-D on the live simulation: it
// runs xPic under deterministic node-failure injection, checkpoints the
// running job through the SCR stack at a step cadence, and — when a failure
// tears the job down mid-step — rewinds to the best surviving checkpoint
// level and re-executes from that step, all inside one simulated timeline.
// The emitted makespan therefore contains the failure-free work plus every
// failure's lost work, restart overhead and restore cost, exactly the
// quantities the DEEP-ER SCR extension trades against checkpoint cadence.
//
// The pieces it wires together:
//
//   - psmpi.FailureInjector schedules seeded failures as kernel events and
//     aborts the whole job tree when one fires (internal/engine teardown);
//   - scr.Manager records multi-level checkpoints, loses state with the
//     failed node (FailNode), and picks the newest fully-recoverable step
//     and per-rank levels (BestRestart);
//   - xpic.Run executes one attempt: restore, compute, checkpoint,
//     die mid-step if the injector says so.
//
// Run drives attempts until the job completes or the restart budget is
// exhausted. Everything is deterministic for a fixed seed: the failure
// sequence is drawn from a seeded RNG in virtual time, and the simulation
// itself is deterministic by construction, so a resilience scenario is
// byte-stable under any sweep worker count.
package resilience

import (
	"fmt"

	"clusterbooster/internal/core"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/psmpi"
	"clusterbooster/internal/scr"
	"clusterbooster/internal/vclock"
	"clusterbooster/internal/xpic"
)

// Params describes one resilience scenario.
type Params struct {
	// Mode is the xPic execution scenario (Cluster, Booster, C+B).
	Mode xpic.Mode
	// Nodes is the rank count per solver.
	Nodes int
	// Workload is the xPic configuration.
	Workload xpic.Config
	// CheckpointEvery checkpoints after every k-th completed step (0 = no
	// checkpoints; every failure then restarts the job from step 0).
	CheckpointEvery int
	// SCR configures the checkpoint cadence across levels (BuddyEvery,
	// GlobalEvery) and the planning MTBF. The global level requires a mono
	// mode: in C+B mode the two process worlds cannot close one shared SION
	// container collectively.
	SCR scr.Config
	// MTBF is the injector's per-node mean time between failures (0 = no
	// failures). Note the unit: virtual seconds, on the same clock as the
	// job's makespan — CI workloads run virtual seconds, not hours, so
	// experiment MTBFs are scaled accordingly (the model is scale-free).
	MTBF vclock.Time
	// Seed fixes the failure sequence.
	Seed int64
	// MaxFailures bounds how many failures the injector fires in total, so
	// the job eventually runs to completion.
	MaxFailures int
	// MaxRestarts bounds the replay loop (default 16).
	MaxRestarts int
	// RestartOverhead is the fixed relaunch cost per restart — node reboot,
	// requeue, process start — paid between the failure instant and the next
	// attempt's boot. Restore I/O is modelled separately, inside the ranks.
	RestartOverhead vclock.Time
}

func (p Params) maxRestarts() int {
	if p.MaxRestarts <= 0 {
		return 16
	}
	return p.MaxRestarts
}

// Restart describes one failure/restart cycle of an outcome.
type Restart struct {
	// At is the failure instant (virtual).
	At vclock.Time `json:"at_s"`
	// FailedNode names the node the injector killed.
	FailedNode string `json:"failed_node"`
	// FromStep is the step the job rewound to (0 with Cold).
	FromStep int `json:"from_step"`
	// Cold is true when no complete checkpoint survived and the job
	// restarted from scratch.
	Cold bool `json:"cold,omitempty"`
	// Levels lists the per-rank checkpoint level each rank restored from
	// (scr.BestRestart's choice); empty on cold restarts.
	Levels []string `json:"levels,omitempty"`
	// LostWork is the virtual time between the restored checkpoint's
	// durability (or the attempt's start) and the failure.
	LostWork vclock.Time `json:"lost_work_s"`
	// RestoreTime is the slowest rank's restore I/O in the next attempt.
	RestoreTime vclock.Time `json:"restore_s"`
}

// Outcome summarises a completed resilience scenario.
type Outcome struct {
	// Report is the final (successful) attempt's xPic report; its Makespan
	// is the total virtual time including all failed attempts, lost work,
	// restart overheads and restores.
	Report xpic.Report `json:"report"`
	// Failures counts injected failures.
	Failures int `json:"failures"`
	// Restarts records each failure/restart cycle in order.
	Restarts []Restart `json:"restarts,omitempty"`
	// Checkpoints counts completed collective checkpoints (replays included).
	Checkpoints int `json:"checkpoints"`
	// CheckpointTime is the summed virtual span of those checkpoints.
	CheckpointTime vclock.Time `json:"checkpoint_s"`
	// LostWork is the total recomputed virtual time across failures.
	LostWork vclock.Time `json:"lost_work_s"`
	// RestoreTime is the total restore I/O (slowest rank per restart).
	RestoreTime vclock.Time `json:"restore_s"`
	// RestartOverheadTotal is Params.RestartOverhead times Failures.
	RestartOverheadTotal vclock.Time `json:"restart_overhead_s"`
}

// Run executes the scenario to completion: attempts under failure injection,
// each failure followed by a rewind to scr's best surviving checkpoint.
func Run(params Params) (Outcome, error) {
	if params.Nodes < 1 {
		return Outcome{}, fmt.Errorf("resilience: %d nodes per solver", params.Nodes)
	}
	if params.Mode == xpic.SplitCB && params.SCR.GlobalEvery > 0 {
		return Outcome{}, fmt.Errorf("resilience: the global checkpoint level requires a mono mode")
	}

	clusterN, boosterN := 0, 0
	jobModule := machine.Booster
	switch params.Mode {
	case xpic.ClusterOnly:
		clusterN, jobModule = params.Nodes, machine.Cluster
	case xpic.BoosterOnly:
		boosterN = params.Nodes
	case xpic.SplitCB:
		clusterN, boosterN = params.Nodes, params.Nodes
	default:
		return Outcome{}, fmt.Errorf("resilience: unknown mode %v", params.Mode)
	}
	sys := core.New(clusterN, boosterN, core.Options{})

	// The machine holds exactly the job's nodes. jobNodes boot the launch
	// (the Booster side in split mode); scrNodes maps the global resilience
	// rank — mono world ranks, or booster ranks then cluster ranks in split
	// mode — to its node, for both the SCR manager and the injector's victim
	// pool.
	jobNodes := sys.Machine.Module(jobModule)
	scrNodes := append(append([]*machine.Node(nil), sys.Machine.Module(machine.Booster)...),
		sys.Machine.Module(machine.Cluster)...)

	mgr, err := scr.New(params.SCR, sys.Network, sys.FS, scrNodes, sys.NVMe)
	if err != nil {
		return Outcome{}, err
	}
	store := &scrStore{mgr: mgr, curStep: -1}
	inj := psmpi.NewFailureInjector(params.MTBF, params.Seed, params.MaxFailures, scrNodes)
	inj.OnFailure = func(node *machine.Node, at vclock.Time) { mgr.FailNode(node.ID) }

	var out Outcome
	var now vclock.Time
	attemptStart := vclock.Time(0)
	startStep := 0
	for attempt := 0; attempt <= params.maxRestarts(); attempt++ {
		spec := xpic.Spec{
			Mode:            params.Mode,
			Nodes:           jobNodes,
			Cfg:             params.Workload,
			StartTime:       now,
			StartStep:       startStep,
			CheckpointEvery: params.CheckpointEvery,
			Failures:        inj,
		}
		if params.CheckpointEvery > 0 || startStep > 0 {
			spec.Store = store
		}
		store.restoreMax = 0
		rep, err := xpic.Run(sys.Runtime, spec)
		if err == nil {
			if n := len(out.Restarts); n > 0 {
				out.Restarts[n-1].RestoreTime = store.restoreMax
				out.RestoreTime += store.restoreMax
			}
			store.flush()
			out.Report = rep
			out.Checkpoints = store.ckptCount
			out.CheckpointTime = store.ckptTime
			out.RestartOverheadTotal = vclock.Time(out.Failures) * params.RestartOverhead
			return out, nil
		}
		nf, ok := psmpi.FailureOf(err)
		if !ok {
			return Outcome{}, err // a genuine application or runtime error
		}
		// Close the attempt's open checkpoint span (possibly cut mid-write by
		// the failure): the replay may re-save the same step number, which
		// must open a fresh span, not extend this one across the failure.
		store.flush()
		if n := len(out.Restarts); n > 0 {
			// The attempt that just died restored first; account its I/O.
			out.Restarts[n-1].RestoreTime = store.restoreMax
			out.RestoreTime += store.restoreMax
		}
		out.Failures++
		restart := Restart{At: nf.At, FailedNode: nf.Node}
		if step, levels, ok := mgr.BestRestart(); ok {
			restart.FromStep = step
			restart.Levels = levelNames(levels)
			// Clamped at zero: a failure striking mid-checkpoint can restore
			// from writes issued before it that become durable just after it
			// (surviving nodes' devices complete asynchronously) — no work
			// is lost then.
			restart.LostWork = vclock.Max(0, nf.At-vclock.Max(store.doneAt(step), attemptStart))
			startStep = step
			store.loadStep, store.loadLevels = step, levels
		} else {
			restart.Cold = true
			restart.LostWork = nf.At - attemptStart
			startStep = 0
		}
		out.Restarts = append(out.Restarts, restart)
		out.LostWork += restart.LostWork
		now = nf.At + params.RestartOverhead
		attemptStart = now
	}
	return Outcome{}, fmt.Errorf("resilience: job did not complete within %d restarts (%d failures)",
		params.maxRestarts(), out.Failures)
}

// levelNames renders per-rank levels for reports.
func levelNames(levels []scr.Level) []string {
	out := make([]string, len(levels))
	for i, l := range levels {
		out[i] = l.String()
	}
	return out
}

// scrStore adapts the SCR manager to xpic.CheckpointStore: storage costs are
// modelled by the manager against the calling rank's clock and charged with
// Elapse, so checkpoint and restore time takes its place in the job's event
// order and makespan.
type scrStore struct {
	mgr        *scr.Manager
	loadStep   int
	loadLevels []scr.Level

	// Checkpoint-span accounting: checkpoints are collective and sequential,
	// so Save calls for a new step close the previous step's span.
	curStep   int
	curBegin  vclock.Time
	curEnd    vclock.Time
	ckptDone  map[int]vclock.Time // step → durable instant (latest completion)
	ckptCount int                 // completed checkpoints (counted at Complete)
	ckptTime  vclock.Time         // summed spans, partial (failure-cut) ones included
	// restoreMax is the slowest rank's restore I/O of the current attempt.
	restoreMax vclock.Time
}

// Save writes one rank's snapshot at the step's planned levels. The
// submit/await split matters here: the durable instant is recorded before
// the rank parks, so a failure that kills the rank mid-checkpoint still
// leaves the span accounting of the work that was issued.
func (st *scrStore) Save(p *psmpi.Proc, rank, step int, data []byte) error {
	levels := st.mgr.BeginCheckpoint(step)
	start := p.Now()
	op, err := st.mgr.SubmitCheckpoint(ioev.Start(p), rank, step, data, levels)
	if err != nil {
		return err
	}
	if step != st.curStep {
		st.flush()
		st.curStep, st.curBegin, st.curEnd = step, start, start
	}
	st.note(step, op.Time())
	ioev.Await(p, op)
	return nil
}

// Complete closes the step's global container (a no-op for local/buddy-only
// plans) and counts the checkpoint: Complete runs exactly once per finished
// collective checkpoint, so a partial one — cut down by a failure — never
// inflates the count.
func (st *scrStore) Complete(p *psmpi.Proc, step int) error {
	op, err := st.mgr.SubmitCompleteGlobal(ioev.Start(p), step, 0)
	if err != nil {
		return err
	}
	st.note(step, op.Time())
	st.ckptCount++
	ioev.Await(p, op)
	return nil
}

// Load restores one rank from the level BestRestart chose for it.
func (st *scrStore) Load(p *psmpi.Proc, rank int) ([]byte, error) {
	start := p.Now()
	data, op, err := st.mgr.SubmitRestore(ioev.Start(p), rank, st.loadStep, st.loadLevels[rank])
	if err != nil {
		return nil, err
	}
	if d := op.Time() - start; d > st.restoreMax {
		st.restoreMax = d
	}
	ioev.Await(p, op)
	return data, nil
}

// note extends the current checkpoint span and the step's durable instant.
func (st *scrStore) note(step int, done vclock.Time) {
	if done > st.curEnd {
		st.curEnd = done
	}
	if st.ckptDone == nil {
		st.ckptDone = map[int]vclock.Time{}
	}
	if done > st.ckptDone[step] {
		st.ckptDone[step] = done
	}
}

// flush folds the open checkpoint span into the time total and closes it.
// Called between checkpoints (Save of a new step) and after every attempt —
// the latter so a replay re-checkpointing the same step number starts a
// fresh span instead of absorbing the failure window into checkpoint time.
func (st *scrStore) flush() {
	if st.curStep >= 0 {
		st.ckptTime += st.curEnd - st.curBegin
		st.curStep = -1
	}
}

// doneAt returns the durable instant of a step's checkpoint (0 if unknown).
func (st *scrStore) doneAt(step int) vclock.Time { return st.ckptDone[step] }
