package machine

import (
	"math"
	"testing"
	"testing/quick"

	"clusterbooster/internal/vclock"
)

// TestTable1ClusterColumn pins the Cluster column of Table I.
func TestTable1ClusterColumn(t *testing.T) {
	c := ClusterNode()
	if c.Processor != "Intel Xeon E5-2680 v3" {
		t.Errorf("processor = %q", c.Processor)
	}
	if c.Arch != Haswell {
		t.Errorf("arch = %v, want Haswell", c.Arch)
	}
	if c.Sockets != 2 || c.Cores != 24 || c.Threads != 48 {
		t.Errorf("sockets/cores/threads = %d/%d/%d, want 2/24/48", c.Sockets, c.Cores, c.Threads)
	}
	if c.FreqGHz != 2.5 {
		t.Errorf("freq = %v, want 2.5", c.FreqGHz)
	}
	if c.RAMBytes != 128<<30 {
		t.Errorf("RAM = %d, want 128 GiB", c.RAMBytes)
	}
	if c.MCDRAMBytes != 0 {
		t.Errorf("cluster node has MCDRAM")
	}
	if c.MPIBaseLatency != 1.0*vclock.Microsecond {
		t.Errorf("MPI latency = %v, want 1.0µs", c.MPIBaseLatency)
	}
	if c.LinkGbits != 100 {
		t.Errorf("link = %v Gbit/s, want 100", c.LinkGbits)
	}
}

// TestTable1BoosterColumn pins the Booster column of Table I.
func TestTable1BoosterColumn(t *testing.T) {
	b := BoosterNode()
	if b.Processor != "Intel Xeon Phi 7210" {
		t.Errorf("processor = %q", b.Processor)
	}
	if b.Arch != KNL {
		t.Errorf("arch = %v, want KNL", b.Arch)
	}
	if b.Sockets != 1 || b.Cores != 64 || b.Threads != 256 {
		t.Errorf("sockets/cores/threads = %d/%d/%d, want 1/64/256", b.Sockets, b.Cores, b.Threads)
	}
	if b.FreqGHz != 1.3 {
		t.Errorf("freq = %v, want 1.3", b.FreqGHz)
	}
	if b.MCDRAMBytes != 16<<30 {
		t.Errorf("MCDRAM = %d, want 16 GiB", b.MCDRAMBytes)
	}
	if b.RAMBytes != 96<<30 {
		t.Errorf("DDR4 = %d, want 96 GiB", b.RAMBytes)
	}
	if b.MPIBaseLatency != 1.8*vclock.Microsecond {
		t.Errorf("MPI latency = %v, want 1.8µs", b.MPIBaseLatency)
	}
}

// TestTable1NodeCounts pins the prototype node counts (16 + 8).
func TestTable1NodeCounts(t *testing.T) {
	if got := PrototypeNodeCount(Cluster); got != 16 {
		t.Errorf("cluster nodes = %d, want 16", got)
	}
	if got := PrototypeNodeCount(Booster); got != 8 {
		t.Errorf("booster nodes = %d, want 8", got)
	}
}

// TestTable1PeakPerformance checks the module peaks (~16 and ~20 TFlop/s).
func TestTable1PeakPerformance(t *testing.T) {
	s := Prototype()
	if got := s.TotalPeakTFlops(Cluster); math.Abs(got-16*0.96) > 1e-9 {
		t.Errorf("cluster peak = %v TFlop/s", got)
	}
	if got := s.TotalPeakTFlops(Booster); math.Abs(got-20) > 1e-9 {
		t.Errorf("booster peak = %v TFlop/s, want 20", got)
	}
}

// TestCalibratedKernelRatios pins the two single-node calibration points from
// §IV-C of the paper: 6× for the field solver, 1.35× for the particle solver.
func TestCalibratedKernelRatios(t *testing.T) {
	cn, bn := ClusterNode(), BoosterNode()
	field := cn.EffectiveGFlops(KernelFieldSolver) / bn.EffectiveGFlops(KernelFieldSolver)
	if math.Abs(field-6.0) > 1e-9 {
		t.Errorf("field-solver Cluster advantage = %v, want 6.0", field)
	}
	if got := bn.EffectiveGFlops(KernelParticle) / cn.EffectiveGFlops(KernelParticle); math.Abs(got-1.35) > 1e-9 {
		t.Errorf("particle-solver Booster advantage = %v, want 1.35", got)
	}
}

func TestSingleThreadAdvantage(t *testing.T) {
	// Haswell single-thread must be markedly faster than KNL (Table I
	// footnote attributes Booster MPI latency to this).
	h := ClusterNode().SingleThreadGHzEquiv()
	k := BoosterNode().SingleThreadGHzEquiv()
	if h/k < 2.5 || h/k > 6 {
		t.Errorf("single-thread ratio = %v, want within [2.5,6]", h/k)
	}
}

func TestComputeTimeScalesLinearly(t *testing.T) {
	c := ClusterNode()
	t1 := c.ComputeTime(Work{Class: KernelParticle, Flops: 1e9})
	t2 := c.ComputeTime(Work{Class: KernelParticle, Flops: 2e9})
	if math.Abs(float64(t2)/float64(t1)-2) > 1e-9 {
		t.Errorf("compute time not linear: %v vs %v", t1, t2)
	}
}

func TestComputeTimeRoofline(t *testing.T) {
	c := ClusterNode()
	// Memory-bound work: bytes term dominates.
	w := Work{Class: KernelStream, Flops: 1, Bytes: 110e9} // exactly 1 s of memory traffic
	if got := c.ComputeTime(w).Seconds(); math.Abs(got-1) > 1e-6 {
		t.Errorf("stream time = %v s, want 1", got)
	}
	// Compute-bound work: flop term dominates (3 GFlop/s calibrated rate).
	w = Work{Class: KernelFieldSolver, Flops: 3e9, Bytes: 1}
	if got := c.ComputeTime(w).Seconds(); math.Abs(got-1) > 1e-6 {
		t.Errorf("field time = %v s, want 1", got)
	}
}

func TestComputeTimeZeroWork(t *testing.T) {
	if got := ClusterNode().ComputeTime(Work{}); got != 0 {
		t.Errorf("zero work costs %v", got)
	}
}

func TestComputeTimeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative work did not panic")
		}
	}()
	ClusterNode().ComputeTime(Work{Flops: -1})
}

func TestSystemLayout(t *testing.T) {
	s := New(3, 2)
	if len(s.Nodes()) != 5 {
		t.Fatalf("total nodes = %d, want 5", len(s.Nodes()))
	}
	if s.NodeCount(Cluster) != 3 || s.NodeCount(Booster) != 2 {
		t.Fatalf("module counts wrong")
	}
	// Global IDs are dense and ordered Cluster-then-Booster.
	for i, n := range s.Nodes() {
		if n.ID != i {
			t.Errorf("node %d has ID %d", i, n.ID)
		}
	}
	if s.Node(3).Module != Booster || s.Node(3).Index != 0 {
		t.Errorf("node 3 = %+v, want first booster node", s.Node(3))
	}
	if got := s.Node(0).Name(); got != "cn00" {
		t.Errorf("name = %q, want cn00", got)
	}
	if got := s.Node(4).Name(); got != "bn01" {
		t.Errorf("name = %q, want bn01", got)
	}
}

func TestSystemNodeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Node() did not panic")
		}
	}()
	New(1, 1).Node(2)
}

func TestModuleString(t *testing.T) {
	if Cluster.String() != "Cluster" || Booster.String() != "Booster" {
		t.Fatal("module names wrong")
	}
	if KernelFieldSolver.String() != "field-solver" {
		t.Fatal("kernel class name wrong")
	}
}

func TestQuickComputeTimeMonotone(t *testing.T) {
	// Property: more flops never cost less time, on either node type.
	specs := []NodeSpec{ClusterNode(), BoosterNode()}
	classes := []KernelClass{KernelSerial, KernelFieldSolver, KernelParticle, KernelStream}
	f := func(a, b uint32, si, ci uint8) bool {
		s := specs[int(si)%len(specs)]
		k := classes[int(ci)%len(classes)]
		lo, hi := float64(a), float64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		return s.ComputeTime(Work{Class: k, Flops: lo}) <= s.ComputeTime(Work{Class: k, Flops: hi})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
