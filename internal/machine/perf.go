package machine

import (
	"fmt"

	"clusterbooster/internal/vclock"
)

// KernelClass categorises computational kernels by how they exercise a node.
// The class determines the effective node-level throughput: the same flop
// count costs very different time on Haswell vs KNL depending on how serial,
// how vectorisable and how memory-regular the kernel is.
type KernelClass int

const (
	// KernelSerial is single-thread-bound work: orchestration, diagnostics,
	// solver setup, I/O marshalling. Runs at single-core scalar speed.
	KernelSerial KernelClass = iota
	// KernelFieldSolver is the implicit-moment field solve: a sparse
	// iterative solver with short vectors, frequent reductions and limited
	// thread scalability. The paper measures it 6× faster on a Haswell node
	// than on a KNL node (§IV-C).
	KernelFieldSolver
	// KernelParticle is the particle push + moment gathering: embarrassingly
	// parallel over particles, wide-vector friendly, gather/scatter bound.
	// The paper measures it 1.35× faster on a KNL node (§IV-C).
	KernelParticle
	// KernelStream is bandwidth-bound streaming (large copies, buffer
	// packing). Limited by MemBWGBs.
	KernelStream
)

// String names the kernel class.
func (k KernelClass) String() string {
	switch k {
	case KernelSerial:
		return "serial"
	case KernelFieldSolver:
		return "field-solver"
	case KernelParticle:
		return "particle"
	case KernelStream:
		return "stream"
	default:
		return fmt.Sprintf("KernelClass(%d)", int(k))
	}
}

// Effective node-level throughputs in GFlop/s for the two solver kernel
// classes. These four numbers are the calibration core of the whole
// reproduction; everything else is derived. Rationale:
//
//   - Field solver: sparse CG-like kernels sustain only a few percent of
//     peak. On Haswell, 3 GFlop/s/node is a typical sustained rate for a
//     short-vector stencil solver with reductions.
//     The paper's measured 6× Cluster advantage (§IV-C) pins KNL at 1/6 of
//     that. The physical story: the solver's short loops, serial fractions
//     and latency-sensitive reductions strand KNL's 64 slow (1.3 GHz, ~1 IPC)
//     cores, while Haswell's fat cores shine.
//   - Particle solver: streaming over millions of independent particles with
//     bilinear gather/scatter. Haswell sustains ~30 GFlop/s (≈3 % of AVX2
//     peak — gather-bound). KNL's AVX-512 + MCDRAM more than compensate for
//     the weak cores; the paper measures 1.35× KNL advantage.
const (
	fieldGFlopsHaswell    = 3.0
	fieldGFlopsKNL        = fieldGFlopsHaswell / 6.0 // paper §IV-C: 6×
	particleGFlopsHaswell = 30.0
	particleGFlopsKNL     = particleGFlopsHaswell * 1.35 // paper §IV-C: 1.35×
)

// EffectiveGFlops returns the sustained node-level throughput of a kernel
// class on this node type, in GFlop/s.
func (s NodeSpec) EffectiveGFlops(k KernelClass) float64 {
	switch k {
	case KernelSerial:
		// One core, scalar: ~1 flop per "GHz-equivalent" cycle.
		return s.SingleThreadGHzEquiv()
	case KernelFieldSolver:
		if s.Arch == Haswell {
			return fieldGFlopsHaswell
		}
		return fieldGFlopsKNL
	case KernelParticle:
		if s.Arch == Haswell {
			return particleGFlopsHaswell
		}
		return particleGFlopsKNL
	case KernelStream:
		// Streaming cost is modelled through memory bandwidth instead; give
		// a nominal compute rate well above it so the memory term dominates.
		return 1000
	default:
		panic(fmt.Sprintf("machine: unknown kernel class %d", int(k)))
	}
}

// Work describes one costed piece of computation: a flop count executed under
// a kernel class, plus optional memory traffic. Either term may be zero.
type Work struct {
	Class KernelClass
	Flops float64 // double-precision floating point operations
	Bytes float64 // memory bytes moved (for bandwidth-bound phases)
}

// ComputeTime returns the virtual time the given work takes on this node
// type. Compute and memory terms are combined with max(), the usual roofline
// assumption: a kernel is limited by whichever resource it saturates.
func (s NodeSpec) ComputeTime(w Work) vclock.Time {
	if w.Flops < 0 || w.Bytes < 0 {
		panic("machine: negative work")
	}
	var tc, tm float64
	if w.Flops > 0 {
		tc = w.Flops / (s.EffectiveGFlops(w.Class) * 1e9)
	}
	if w.Bytes > 0 {
		tm = w.Bytes / (s.MemBWGBs * 1e9)
	}
	if tm > tc {
		tc = tm
	}
	return vclock.Time(tc)
}
