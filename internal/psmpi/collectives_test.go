package psmpi

import (
	"math"
	"testing"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// collJob runs main over n cluster nodes.
func collJob(t *testing.T, n int, main MainFunc) Result {
	t.Helper()
	rt := testRuntime(n, 0)
	return runJob(t, rt, n, main)
}

// TestCollectiveTagsStayInTheirBlock: each collective invocation reserves
// the next block of tags above the user range, and all of Barrier's rounds
// stay inside its block. Rank 0 enters every collective late, so the other
// ranks' messages to it wait in its unexpected queue, where the test reads
// their tags.
func TestCollectiveTagsStayInTheirBlock(t *testing.T) {
	const n = 8        // three barrier rounds, one message to rank 0 in each
	var queued [][]int // per invocation, the tags waiting for rank 0
	collJob(t, n, func(p *Proc) error {
		w := p.World()
		buf := make([]float64, 1)
		ops := []func(){
			func() { p.Barrier(w) },
			func() { p.BcastF64(w, 0, buf) }, // rank 0 only sends
			func() { p.Barrier(w) },
			func() { p.Barrier(w) },
		}
		for _, op := range ops {
			if p.Rank() == 0 {
				p.Elapse(vclock.Millisecond)
				var tags []int
				for _, e := range p.mbox.unexpected {
					tags = append(tags, e.tag)
				}
				queued = append(queued, tags)
			}
			op()
		}
		return nil
	})
	for i, want := range []int{3, 0, 3, 3} {
		tags := queued[i]
		if len(tags) != want {
			t.Errorf("invocation %d: rank 0 found %d messages waiting, want %d", i, len(tags), want)
		}
		seen := map[int]bool{}
		for _, tag := range tags {
			if tag < MaxUserTag || (tag-MaxUserTag)/collTagBlock != i {
				t.Errorf("invocation %d: tag %d outside its block [%d, %d)", i, tag,
					MaxUserTag+i*collTagBlock, MaxUserTag+(i+1)*collTagBlock)
			}
			if seen[tag] {
				t.Errorf("invocation %d: two rounds share tag %d", i, tag)
			}
			seen[tag] = true
		}
	}
}

// TestCollTagBlockBoundary pins collTag's size cap at the block: a
// communicator of exactly collTagBlock ranks gets the first block, one more
// rank panics.
func TestCollTagBlockBoundary(t *testing.T) {
	c := &Comm{local: make([]*Proc, collTagBlock), collSeq: make([]uint64, collTagBlock+1)}
	p := &Proc{world: c}
	tag := func() (tag int, panicked bool) {
		defer func() { panicked = recover() != nil }()
		return p.collTag(c), false
	}
	if got, panicked := tag(); panicked || got != MaxUserTag {
		t.Errorf("%d ranks: tag %d (panicked %v), want %d", collTagBlock, got, panicked, MaxUserTag)
	}
	c.local = append(c.local, nil)
	if _, panicked := tag(); !panicked {
		t.Errorf("%d ranks: no panic, want the tag-block cap", collTagBlock+1)
	}
}

func TestBarrierSynchronisesClocks(t *testing.T) {
	// After a barrier, every clock must be >= the straggler's pre-barrier
	// time.
	const straggle = 5 * vclock.Millisecond
	res := collJob(t, 5, func(p *Proc) error {
		if p.Rank() == 3 {
			p.Elapse(straggle)
		}
		p.Barrier(p.World())
		if p.Now() < straggle {
			t.Errorf("rank %d at %v after barrier, before straggler's %v", p.Rank(), p.Now(), straggle)
		}
		return nil
	})
	_ = res
}

// TestBarrierCostLogP: a barrier that all ranks enter together, one rank
// per node, costs exactly one zero-byte message latency per dissemination
// round, ⌈log2 n⌉ in all. An extra round on a power-of-two communicator
// would address each rank to itself: its message never waits in a queue,
// so only the clock shows it.
func TestBarrierCostLogP(t *testing.T) {
	var latency vclock.Time
	collJob(t, 2, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(p.World(), 1, 0, nil, 0)
		} else {
			p.Recv(p.World(), 0, 0)
			latency = p.Now()
		}
		return nil
	})
	for _, tc := range []struct{ n, rounds int }{{2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}} {
		res := collJob(t, tc.n, func(p *Proc) error {
			p.Barrier(p.World())
			return nil
		})
		want := vclock.Time(tc.rounds) * latency
		if math.Abs((res.Makespan - want).Seconds()) > 1e-15 {
			t.Errorf("%d-rank barrier took %v, want %d rounds of %v = %v", tc.n, res.Makespan, tc.rounds, latency, want)
		}
	}
}

// TestBcastValues also checks that the broadcast tree sends nothing beyond
// its n-1 edges: after a closing barrier, by which every rank's broadcast
// sends are delivered, no rank holds an unreceived message.
func TestBcastValues(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		collJob(t, n, func(p *Proc) error {
			buf := make([]float64, 4)
			if p.rankIn(p.World()) == 0 {
				for i := range buf {
					buf[i] = float64(i + 1)
				}
			}
			p.BcastF64(p.World(), 0, buf)
			for i := range buf {
				if buf[i] != float64(i+1) {
					t.Errorf("n=%d rank %d: bcast buf = %v", n, p.Rank(), buf)
					return nil
				}
			}
			p.Barrier(p.World())
			if q := p.mbox.unexpected; len(q) != 0 {
				t.Errorf("n=%d rank %d: %d unreceived messages after the broadcast, first from rank %d",
					n, p.Rank(), len(q), q[0].src)
			}
			return nil
		})
	}
}

func TestBcastNonZeroRoot(t *testing.T) {
	collJob(t, 5, func(p *Proc) error {
		buf := []float64{0}
		if p.Rank() == 3 {
			buf[0] = 99
		}
		p.BcastF64(p.World(), 3, buf)
		if buf[0] != 99 {
			t.Errorf("rank %d: got %v from root 3", p.Rank(), buf[0])
		}
		return nil
	})
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		collJob(t, n, func(p *Proc) error {
			buf := []float64{float64(p.Rank() + 1), 1}
			p.ReduceF64(p.World(), 0, buf, OpSum)
			if p.Rank() == 0 {
				want := float64(n*(n+1)) / 2
				if buf[0] != want || buf[1] != float64(n) {
					t.Errorf("n=%d: reduce got %v, want [%v %v]", n, buf, want, n)
				}
			}
			return nil
		})
	}
}

func TestReduceMaxMin(t *testing.T) {
	collJob(t, 6, func(p *Proc) error {
		buf := []float64{float64(p.Rank())}
		p.ReduceF64(p.World(), 0, buf, OpMax)
		if p.Rank() == 0 && buf[0] != 5 {
			t.Errorf("max = %v, want 5", buf[0])
		}
		buf2 := []float64{float64(p.Rank())}
		p.ReduceF64(p.World(), 0, buf2, OpMin)
		if p.Rank() == 0 && buf2[0] != 0 {
			t.Errorf("min = %v, want 0", buf2[0])
		}
		return nil
	})
}

func TestAllreduceEveryRankGetsResult(t *testing.T) {
	for _, n := range []int{2, 3, 8} {
		collJob(t, n, func(p *Proc) error {
			v := p.AllreduceScalar(p.World(), float64(p.Rank()+1), OpSum)
			want := float64(n*(n+1)) / 2
			if v != want {
				t.Errorf("n=%d rank %d: allreduce = %v, want %v", n, p.Rank(), v, want)
			}
			return nil
		})
	}
}

func TestAllreduceCostGrowsWithRanks(t *testing.T) {
	cost := func(n int) vclock.Time {
		rt := testRuntime(n, 0)
		res := runJob(t, rt, n, func(p *Proc) error {
			p.AllreduceScalar(p.World(), 1, OpSum)
			return nil
		})
		return res.Makespan
	}
	c2, c8 := cost(2), cost(8)
	if c8 <= c2 {
		t.Errorf("allreduce cost: 8 ranks %v <= 2 ranks %v", c8, c2)
	}
	// Tree algorithms: 8 ranks should cost no more than ~6× the 2-rank case
	// (log factor, not linear).
	if c8 > 8*c2 {
		t.Errorf("allreduce cost scaling looks linear: %v vs %v", c2, c8)
	}
}

func TestCollectivesOnBooster(t *testing.T) {
	// Collectives work on Booster nodes and cost more (1.8µs latency).
	rtC := testRuntime(4, 4)
	cNodes := rtC.sys.Module(machine.Cluster)
	bNodes := rtC.sys.Module(machine.Booster)
	resC, err := rtC.Launch(LaunchSpec{Nodes: cNodes, Main: func(p *Proc) error {
		p.Barrier(p.World())
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	rtB := testRuntime(4, 4)
	bNodes = rtB.sys.Module(machine.Booster)
	resB, err := rtB.Launch(LaunchSpec{Nodes: bNodes, Main: func(p *Proc) error {
		p.Barrier(p.World())
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resB.Makespan <= resC.Makespan {
		t.Errorf("booster barrier %v not slower than cluster %v", resB.Makespan, resC.Makespan)
	}
}

func TestMixedCollectiveSequence(t *testing.T) {
	// A realistic sequence of different collectives must not cross-match.
	collJob(t, 4, func(p *Proc) error {
		w := p.World()
		v := p.AllreduceScalar(w, 1, OpSum)
		if v != 4 {
			t.Errorf("allreduce = %v", v)
		}
		buf := []float64{float64(p.Rank())}
		p.BcastF64(w, 1, buf)
		if buf[0] != 1 {
			t.Errorf("bcast = %v", buf[0])
		}
		p.Barrier(w)
		top := []float64{v + buf[0] + float64(p.Rank())}
		p.ReduceF64(w, 3, top, OpMax)
		if p.Rank() == 3 && top[0] != 8 {
			t.Errorf("reduce max = %v", top[0])
		}
		return nil
	})
}

func TestAllreduceLargeVector(t *testing.T) {
	// Vector reductions above the eager threshold exercise rendezvous inside
	// collectives.
	const n = 4
	const k = 8192 // 64 KiB payload
	collJob(t, n, func(p *Proc) error {
		buf := make([]float64, k)
		for i := range buf {
			buf[i] = 1
		}
		p.AllreduceF64(p.World(), buf, OpSum)
		if buf[0] != n || buf[k-1] != n {
			t.Errorf("large allreduce got %v..%v", buf[0], buf[k-1])
		}
		return nil
	})
}

func TestReduceSumMatchesSerial(t *testing.T) {
	// Property-style check: tree reduction must equal serial summation for
	// arbitrary data (floating-point associativity differences are bounded).
	const n = 8
	vals := make([][]float64, n)
	for r := range vals {
		vals[r] = []float64{math.Sqrt(float64(r) + 0.5), float64(r) * 1e-3}
	}
	var want0, want1 float64
	for _, v := range vals {
		want0 += v[0]
		want1 += v[1]
	}
	collJob(t, n, func(p *Proc) error {
		buf := append([]float64(nil), vals[p.Rank()]...)
		p.ReduceF64(p.World(), 0, buf, OpSum)
		if p.Rank() == 0 {
			if math.Abs(buf[0]-want0) > 1e-9 || math.Abs(buf[1]-want1) > 1e-9 {
				t.Errorf("tree sum %v, serial [%v %v]", buf, want0, want1)
			}
		}
		return nil
	})
}
