// Declarative scenario grids. A Grid is the cross product of experiment
// axes — nodes per solver, execution mode, workload, SCR checkpoint levels —
// and expands to one self-contained Scenario per grid point. This is the
// declarative form of the paper's evaluations: Fig. 7 is a 1-node × 3-mode
// grid, Fig. 8 a node-scaling × 3-mode grid, and the DEEP-ER resiliency
// studies add the checkpoint-level axis.
package sweep

import (
	"fmt"
	"slices"
	"strings"

	"clusterbooster/internal/core"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/scr"
	"clusterbooster/internal/vclock"
	"clusterbooster/internal/xpic"
)

// WorkloadVariant names one xPic configuration of a grid.
type WorkloadVariant struct {
	Name   string
	Config xpic.Config
}

// SCRSpec asks a scenario to checkpoint the application state through the
// SCR-like manager after the run, and reports the checkpoint cost as the
// "checkpoint_s" metric. The payload is the macro-particles each rank
// actually holds — the fidelity-scaled count,
// TotalParticles/ParticleScale/ranks — at 48 B per particle (six float64
// components of phase space and weight). Levels and Config must be
// consistent; CheckpointAt, the only constructor, builds a consistent pair.
type SCRSpec struct {
	Config scr.Config
	Levels []scr.Level
}

// CheckpointAt builds an SCRSpec whose cadence config matches the requested
// levels (every checkpoint hits each listed level). LevelLocal is always
// included: the SCR manager plans a local NVMe write on every checkpoint
// (BeginCheckpoint's base level), so a buddy or global cost that excluded it
// would understate what the modelled stack actually pays.
func CheckpointAt(levels ...scr.Level) *SCRSpec {
	spec := &SCRSpec{Levels: []scr.Level{scr.LevelLocal}}
	for _, l := range levels {
		switch l {
		case scr.LevelBuddy:
			spec.Config.BuddyEvery = 1
		case scr.LevelGlobal:
			spec.Config.GlobalEvery = 1
		}
		if l != scr.LevelLocal {
			spec.Levels = append(spec.Levels, l)
		}
	}
	return spec
}

// SCRVariant names one checkpoint configuration of a grid. A nil Spec means
// "no checkpointing" (the compute-only baseline).
type SCRVariant struct {
	Name string
	Spec *SCRSpec
}

// Grid declares a sweep as the cross product of its axes. NodeCounts, Modes
// and Workloads are required; the SCR axis defaults to a single unnamed
// variant (no checkpointing). Every point runs on the prototype's fabric and
// MPI parameters. Expansion order is deterministic: node counts outermost,
// then modes, workloads, SCR variants.
type Grid struct {
	// Name prefixes every scenario name.
	Name string
	// NodeCounts lists the ranks-per-solver points (the x axis of Fig. 8).
	NodeCounts []int
	// Modes lists the execution scenarios (Cluster, Booster, C+B).
	Modes []xpic.Mode
	// Workloads lists the xPic configurations to run.
	Workloads []WorkloadVariant
	// SCRs optionally sweeps checkpoint levels.
	SCRs []SCRVariant
}

// Validate checks the grid is expandable.
func (g Grid) Validate() error {
	if len(g.NodeCounts) == 0 {
		return fmt.Errorf("sweep: grid %q has no node counts", g.Name)
	}
	for _, n := range g.NodeCounts {
		if n < 1 {
			return fmt.Errorf("sweep: grid %q has node count %d", g.Name, n)
		}
	}
	if len(g.Modes) == 0 {
		return fmt.Errorf("sweep: grid %q has no modes", g.Name)
	}
	if len(g.Workloads) == 0 {
		return fmt.Errorf("sweep: grid %q has no workloads", g.Name)
	}
	return nil
}

// Size returns the number of scenarios the grid expands to.
func (g Grid) Size() int {
	n := len(g.NodeCounts) * len(g.Modes) * len(g.Workloads)
	return n * max(len(g.SCRs), 1)
}

// Scenarios expands the grid to its cross product in deterministic order.
func (g Grid) Scenarios() ([]Scenario, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	scrs := g.SCRs
	if len(scrs) == 0 {
		scrs = []SCRVariant{{}}
	}

	scenarios := make([]Scenario, 0, g.Size())
	for _, n := range g.NodeCounts {
		for _, mode := range g.Modes {
			for _, wl := range g.Workloads {
				for _, sv := range scrs {
					p := XPicPoint{
						NodesPerSolver: n,
						Mode:           mode,
						Workload:       wl.Config,
						SCR:            sv.Spec,
					}
					name := joinName(g.Name,
						fmt.Sprintf("n=%d", n), mode.String(), wl.Name, sv.Name)
					scenarios = append(scenarios, p.Scenario(name))
				}
			}
		}
	}
	return scenarios, nil
}

// joinName joins the non-empty name parts with "/".
func joinName(parts ...string) string {
	kept := parts[:0]
	for _, p := range parts {
		if p != "" {
			kept = append(kept, p)
		}
	}
	return strings.Join(kept, "/")
}

// XPicPoint is one fully resolved grid point: everything needed to boot a
// system and run xPic on it.
type XPicPoint struct {
	NodesPerSolver int
	Mode           xpic.Mode
	Workload       xpic.Config
	SCR            *SCRSpec
}

// Scenario wraps the point as a self-contained Scenario and reports the
// standard xPic metric set. The compute phase resolves through the
// content-addressed scenario cache (see runcache.go): the first run of a
// distinct configuration boots a fresh system and simulates, later requests
// — from this sweep or any other experiment of the process — reuse the
// memoized report. The checkpoint phase, when the point asks for one, is
// priced per scenario on a fresh storage system.
func (p XPicPoint) Scenario(name string) Scenario {
	return Scenario{Name: name, Run: func() (Outcome, error) {
		var rep xpic.Report
		var err error
		var sys *core.System // system for the checkpoint phase
		if cacheDisabled.Load() {
			// Pre-cache behaviour: one system runs both phases.
			sys = core.New(p.NodesPerSolver, p.NodesPerSolver, core.Options{WithoutStorage: p.SCR == nil})
			rep, err = sys.RunXPic(p.Mode, p.NodesPerSolver, p.Workload)
		} else {
			rep, err = p.cachedRun()
			if err == nil && p.SCR != nil {
				sys = core.New(p.NodesPerSolver, p.NodesPerSolver, core.Options{})
			}
		}
		if err != nil {
			return Outcome{}, err
		}
		m := Metrics{
			"makespan_s":     rep.Makespan.Seconds(),
			"field_s":        rep.FieldTime.Seconds(),
			"particle_s":     rep.ParticleTime.Seconds(),
			"exchange_s":     rep.ExchangeTime.Seconds(),
			"aux_s":          rep.AuxTime.Seconds(),
			"overhead_frac":  rep.OverheadFraction(),
			"cg_iters":       float64(rep.CGIters),
			"field_energy":   rep.FieldEnergy,
			"kinetic_energy": rep.KineticEnergy,
		}
		if p.SCR != nil {
			ckpt, err := p.checkpoint(sys, rep.Makespan)
			if err != nil {
				return Outcome{}, err
			}
			m["checkpoint_s"] = ckpt.Seconds()
		}
		return Outcome{Metrics: m, XPic: &rep}, nil
	}}
}

// checkpoint writes every rank's state through the SCR manager on the nodes
// the dominant solver ran on and returns the virtual checkpoint cost (max
// over ranks, including global-container completion).
func (p XPicPoint) checkpoint(sys *core.System, start vclock.Time) (vclock.Time, error) {
	var nodes []*machine.Node
	var err error
	if p.Mode == xpic.ClusterOnly {
		nodes, err = sys.ClusterNodes(p.NodesPerSolver)
	} else {
		nodes, err = sys.BoosterNodes(p.NodesPerSolver)
	}
	if err != nil {
		return 0, err
	}
	mgr, err := scr.New(p.SCR.Config, sys.Network, sys.FS, nodes, sys.NVMe)
	if err != nil {
		return 0, err
	}
	scale := max(p.Workload.ParticleScale, 1)
	data := make([]byte, int64(p.Workload.TotalParticles()/scale/p.NodesPerSolver)*48)
	mgr.BeginCheckpoint(1)
	// The checkpoint is priced post-run, every rank submitting from the same
	// post-barrier instant — the same reservation order a collective
	// checkpoint under the kernel would produce.
	done := ioev.At(start)
	for rank := range nodes {
		op, err := mgr.SubmitCheckpoint(ioev.At(start), rank, 1, data, p.SCR.Levels)
		if err != nil {
			return 0, fmt.Errorf("sweep: checkpoint rank %d: %w", rank, err)
		}
		done = ioev.After(done, op)
	}
	if slices.Contains(p.SCR.Levels, scr.LevelGlobal) {
		op, err := mgr.SubmitCompleteGlobal(done, 1, 0)
		if err != nil {
			return 0, fmt.Errorf("sweep: complete global checkpoint: %w", err)
		}
		done = ioev.After(done, op)
	}
	return done.Time() - start, nil
}
