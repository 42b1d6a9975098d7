// Package core assembles the Cluster-Booster system — the paper's primary
// contribution (§II): a general-purpose Cluster and a many-core Booster,
// each a stand-alone cluster of nodes, joined by one uniform EXTOLL-like
// fabric and operated as a single machine by a uniform software stack
// (ParaStation-like MPI with cross-module spawn, parallel file system over
// fabric-attached storage, node-local NVMe and network-attached memory).
//
// A core.System is the "machine" every experiment and example boots:
//
//	sys := core.Prototype()          // the DEEP-ER machine: 16 CN + 8 BN
//	rep, err := sys.RunXPic(xpic.SplitCB, 8, xpic.Table2Config())
package core

import (
	"fmt"

	"clusterbooster/internal/beegfs"
	"clusterbooster/internal/fabric"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/nam"
	"clusterbooster/internal/nvme"
	"clusterbooster/internal/psmpi"
	"clusterbooster/internal/xpic"
)

// ModelFingerprint names the current generation of the simulation model and
// execution kernel for the persistent run store's cache epoch (see
// exp.CacheEpoch and internal/runstore). Bump it with any change, anywhere
// in the simulation stack, that can alter a report for an unchanged
// configuration — the working test is "would this re-bless a golden?". An
// unbumped fingerprint after such a change would let a stale store satisfy
// post-change runs; the golden CI gate (cold/warm diff legs) backstops the
// discipline, since a stale warm hit diverges from the freshly blessed
// baseline.
const ModelFingerprint = "cluster-booster-model-1"

// Options tunes system construction. Every system runs the DEEP-ER
// prototype's fabric, MPI and file-system parameters.
type Options struct {
	// WithoutStorage skips BeeGFS, NVMe and NAM construction for
	// compute-only experiments.
	WithoutStorage bool
}

// System is a booted Cluster-Booster machine.
type System struct {
	Machine *machine.System
	Network *fabric.Network
	Runtime *psmpi.Runtime

	// Storage stack (nil/empty if Options.WithoutStorage).
	FS   *beegfs.FS
	NVMe map[int]*nvme.Device // node ID → device
	NAM  []*nam.Device
}

// New builds a system with the given node counts per module.
func New(clusterNodes, boosterNodes int, opts Options) *System {
	ms := machine.New(clusterNodes, boosterNodes)
	net := fabric.New(ms)
	s := &System{
		Machine: ms,
		Network: net,
		Runtime: psmpi.NewRuntime(ms, net, psmpi.Config{}),
	}
	if !opts.WithoutStorage {
		s.FS = beegfs.New(net)
		s.NVMe = map[int]*nvme.Device{}
		for _, n := range ms.Nodes() {
			s.NVMe[n.ID] = nvme.New(nvme.P3700())
		}
		pair := nam.NewPrototypePair(net)
		s.NAM = pair[:]
	}
	return s
}

// Prototype builds the DEEP-ER prototype (Table I): 16 Cluster nodes,
// 8 Booster nodes, full storage stack.
func Prototype() *System { return New(16, 8, Options{}) }

// ClusterNodes returns the first n Cluster nodes.
func (s *System) ClusterNodes(n int) ([]*machine.Node, error) {
	pool := s.Machine.Module(machine.Cluster)
	if n > len(pool) {
		return nil, fmt.Errorf("core: %d cluster nodes requested, system has %d", n, len(pool))
	}
	return pool[:n], nil
}

// BoosterNodes returns the first n Booster nodes.
func (s *System) BoosterNodes(n int) ([]*machine.Node, error) {
	pool := s.Machine.Module(machine.Booster)
	if n > len(pool) {
		return nil, fmt.Errorf("core: %d booster nodes requested, system has %d", n, len(pool))
	}
	return pool[:n], nil
}

// RunXPic runs xPic in one of the three scenarios of §IV-C with n nodes per
// solver: entirely on n Cluster nodes ("Cluster"), entirely on n Booster
// nodes ("Booster"), or split ("C+B") — the particle solver on n Booster
// nodes, which spawns the field solver onto n Cluster nodes.
func (s *System) RunXPic(mode xpic.Mode, n int, cfg xpic.Config) (xpic.Report, error) {
	var nodes []*machine.Node
	var err error
	switch mode {
	case xpic.ClusterOnly:
		nodes, err = s.ClusterNodes(n)
	case xpic.BoosterOnly:
		nodes, err = s.BoosterNodes(n)
	case xpic.SplitCB:
		// psmpi's spawn placement wraps round-robin instead of failing, so
		// the Cluster side's node count is checked here.
		if nodes, err = s.BoosterNodes(n); err == nil {
			_, err = s.ClusterNodes(n)
		}
	default:
		return xpic.Report{}, fmt.Errorf("core: unknown mode %v", mode)
	}
	if err != nil {
		return xpic.Report{}, err
	}
	return xpic.Run(s.Runtime, xpic.Spec{Mode: mode, Nodes: nodes, Cfg: cfg})
}
