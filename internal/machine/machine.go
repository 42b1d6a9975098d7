// Package machine models the hardware of the DEEP-ER prototype: the node
// types of the Cluster module (Intel Xeon E5-2680 v3, Haswell) and the
// Booster module (Intel Xeon Phi 7210, Knights Landing), as listed in
// Table I of the paper, plus the per-kernel-class performance model that the
// virtual-time simulation uses to cost computation.
//
// The performance model intentionally encodes the paper's single-node
// calibration points — the field-solver kernel class runs 6× faster on a
// Haswell node than on a KNL node, and the particle-solver class runs 1.35×
// faster on KNL — and derives everything else (scaling, partition gains,
// overlap benefit) through the simulation.
package machine

import (
	"fmt"

	"clusterbooster/internal/vclock"
)

// Arch identifies a processor micro-architecture.
type Arch int

const (
	// Haswell is the Cluster node CPU (Intel Xeon E5-2680 v3).
	Haswell Arch = iota
	// KNL is the Booster node CPU (Intel Xeon Phi 7210, Knights Landing).
	KNL
)

// String returns the micro-architecture name as used in Table I.
func (a Arch) String() string {
	switch a {
	case Haswell:
		return "Haswell"
	case KNL:
		return "Knights Landing (KNL)"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// Module identifies one side of the Cluster-Booster system.
type Module int

const (
	// Cluster is the general-purpose module (Xeon nodes).
	Cluster Module = iota
	// Booster is the many-core module (Xeon Phi nodes).
	Booster
)

// String returns "Cluster" or "Booster".
func (m Module) String() string {
	if m == Cluster {
		return "Cluster"
	}
	return "Booster"
}

// NodeSpec describes one node type of the prototype (one column of Table I).
type NodeSpec struct {
	Processor   string  // marketing name, e.g. "Intel Xeon E5-2680 v3"
	Arch        Arch    // micro-architecture
	Sockets     int     // sockets per node
	Cores       int     // cores per node (all sockets)
	Threads     int     // hardware threads per node
	FreqGHz     float64 // nominal core frequency
	RAMBytes    int64   // main memory (DDR4)
	MCDRAMBytes int64   // on-package high-bandwidth memory (KNL only)
	MemBWGBs    float64 // sustainable memory bandwidth (GB/s), STREAM-like
	// MPIBaseLatency is the end-to-end small-message MPI latency between two
	// nodes of this type (Table I: 1.0 µs Cluster, 1.8 µs Booster). The
	// fabric package decomposes it into wire + per-endpoint CPU overhead.
	MPIBaseLatency vclock.Time
	// LinkGbits is the injection link bandwidth (EXTOLL Tourmalet A3:
	// 100 Gbit/s on both modules).
	LinkGbits float64
	// PeakTFlops is the nominal double-precision peak of one node, used only
	// for Table I reporting and sanity checks.
	PeakTFlops float64
}

const (
	gb = int64(1) << 30
	tb = int64(1) << 40
)

// ClusterNode returns the DEEP-ER Cluster node specification (Table I).
func ClusterNode() NodeSpec {
	return NodeSpec{
		Processor:      "Intel Xeon E5-2680 v3",
		Arch:           Haswell,
		Sockets:        2,
		Cores:          24,
		Threads:        48,
		FreqGHz:        2.5,
		RAMBytes:       128 * gb,
		MCDRAMBytes:    0,
		MemBWGBs:       110,
		MPIBaseLatency: 1.0 * vclock.Microsecond,
		LinkGbits:      100,
		// 24 cores × 2.5 GHz × 16 DP flop/cycle (AVX2 FMA) = 0.96 TFlop/s;
		// 16 nodes ≈ 16 TFlop/s as in Table I.
		PeakTFlops: 0.96,
	}
}

// BoosterNode returns the DEEP-ER Booster node specification (Table I).
func BoosterNode() NodeSpec {
	return NodeSpec{
		Processor:      "Intel Xeon Phi 7210",
		Arch:           KNL,
		Sockets:        1,
		Cores:          64,
		Threads:        256,
		FreqGHz:        1.3,
		RAMBytes:       96 * gb,
		MCDRAMBytes:    16 * gb,
		MemBWGBs:       400, // MCDRAM-backed
		MPIBaseLatency: 1.8 * vclock.Microsecond,
		LinkGbits:      100,
		// 64 cores × 1.3 GHz × 32 DP flop/cycle (2× AVX-512 FMA) ≈ 2.66
		// TFlop/s nominal; Table I quotes 20 TFlop/s for 8 nodes (≈2.5 each,
		// at AVX frequency). We report the Table I figure.
		PeakTFlops: 2.5,
	}
}

// PrototypeNodeCount returns the DEEP-ER prototype node count per module
// (Table I: 16 Cluster, 8 Booster).
func PrototypeNodeCount(m Module) int {
	if m == Cluster {
		return 16
	}
	return 8
}

// Node is one physical node instance inside a simulated system.
type Node struct {
	ID     int    // global node id, unique across modules
	Index  int    // index within its module
	Module Module // which module the node belongs to
	Spec   NodeSpec
}

// Name returns a human-readable node name such as "cn03" or "bn01".
func (n *Node) Name() string {
	prefix := "cn"
	if n.Module == Booster {
		prefix = "bn"
	}
	return fmt.Sprintf("%s%02d", prefix, n.Index)
}

// CopyGBs returns the single-thread memory-copy rate of this CPU in GB/s.
// It governs the CPU-driven (eager/PIO) message path of the fabric model:
// the slow KNL core is what keeps Booster mid-size message bandwidth below
// the Cluster's in Fig. 3 until DMA takes over for large messages.
func (s NodeSpec) CopyGBs() float64 {
	switch s.Arch {
	case Haswell:
		return 6.0
	case KNL:
		return 2.5
	default:
		return 4.0
	}
}

// SingleThreadGHzEquiv returns a relative single-thread performance figure
// (frequency × scalar IPC factor) used for serial code sections. KNL's Silvermont-
// derived core has markedly lower ILP than Haswell; the footnote to Table I
// attributes the Booster's higher MPI latency to exactly this.
func (s NodeSpec) SingleThreadGHzEquiv() float64 {
	switch s.Arch {
	case Haswell:
		return s.FreqGHz * 2.0 // ~2 scalar IPC sustained
	case KNL:
		return s.FreqGHz * 1.0 // ~1 scalar IPC sustained
	default:
		return s.FreqGHz
	}
}
