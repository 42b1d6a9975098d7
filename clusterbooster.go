// Package clusterbooster is a from-scratch Go reproduction of the system
// described in "Application performance on a Cluster-Booster system"
// (Kreuzer, Eicker, Amaya, Suarez — IPDPS Workshops 2018, arXiv:1904.05275):
// the DEEP-ER prototype of the Cluster-Booster architecture, its software
// stack, and the xPic space-weather application whose partitioning across
// Cluster and Booster provides the paper's headline results.
//
// Because the original runs on hardware (Haswell + KNL nodes on an EXTOLL
// fabric) and an MPI stack that do not exist here, the package operates a
// deterministic virtual-time simulation platform: every MPI rank is a
// goroutine with a virtual clock, computation is costed through calibrated
// node models, and communication through a fabric model (see DESIGN.md for
// the substitution argument). The algorithms themselves are real — the PIC
// code really moves particles and solves Maxwell's equations; only time is
// modelled.
//
// Quick start:
//
//	sys := clusterbooster.Prototype()           // 16 Cluster + 8 Booster nodes
//	rep, err := sys.RunXPic(xpic.SplitCB, 8, clusterbooster.XPicTable2Config())
//	fmt.Println(rep)                            // C+B runtimes, solver split
//
// The scenario constants (xpic.ClusterOnly, xpic.BoosterOnly, xpic.SplitCB)
// live in clusterbooster/internal/xpic, importable from within this module.
//
// The sub-systems are importable through this façade:
//
//	System.Runtime    — ParaStation-like MPI (p2p, collectives, Comm_spawn)
//	System.FS         — BeeGFS-like parallel file system (+BeeOND cache)
//	System.NVMe       — per-node NVMe devices
//	System.NAM        — network-attached memory on the fabric
//
// Experiments: every table and figure of the paper's evaluation (Table I,
// Table II, Figs. 3, 7 and 8) is a named, versioned experiment in the
// registry of internal/exp, run and rendered as paper-style text through
// cmd/cbctl. Each has a golden baseline, diffable and re-recordable there.
// See EXPERIMENTS.md.
package clusterbooster

import (
	"clusterbooster/internal/core"
	"clusterbooster/internal/resilience"
	"clusterbooster/internal/xpic"
)

// System is a booted Cluster-Booster machine (alias of the core type).
type System = core.System

// Options tunes system construction.
type Options = core.Options

// XPicConfig parameterises an xPic run.
type XPicConfig = xpic.Config

// XPicReport is the outcome of an xPic run.
type XPicReport = xpic.Report

// New builds a system with the given node counts per module.
func New(clusterNodes, boosterNodes int, opts Options) *System {
	return core.New(clusterNodes, boosterNodes, opts)
}

// Prototype builds the DEEP-ER prototype: 16 Cluster + 8 Booster nodes with
// the full storage stack (Table I of the paper).
func Prototype() *System { return core.Prototype() }

// XPicTable2Config returns the paper's experiment setup (Table II): 4096
// cells per node, 2048 particles per cell.
func XPicTable2Config() XPicConfig { return xpic.Table2Config() }

// XPicQuickConfig returns a laptop-quick xPic workload for experimentation.
func XPicQuickConfig(steps int) XPicConfig { return xpic.QuickConfig(steps) }

// ResilienceParams describes a checkpoint/restart scenario under live
// node-failure injection (§III-D on the event kernel).
type ResilienceParams = resilience.Params

// ResilienceOutcome summarises a completed resilience scenario: the final
// report plus the failure/restart accounting.
type ResilienceOutcome = resilience.Outcome

// RunResilience executes a resilience scenario to completion: the job
// checkpoints through the SCR stack, seeded failures tear it down as kernel
// events, and each failure rewinds to the best surviving checkpoint level.
func RunResilience(p ResilienceParams) (ResilienceOutcome, error) { return resilience.Run(p) }
