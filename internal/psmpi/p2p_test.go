package psmpi

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"clusterbooster/internal/fabric"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// testRuntime builds a runtime over c cluster and b booster nodes.
func testRuntime(c, b int) *Runtime {
	sys := machine.New(c, b)
	return NewRuntime(sys, fabric.New(sys, fabric.Config{}), Config{})
}

// runJob launches main over the first n cluster nodes and fails the test on
// job error.
func runJob(t *testing.T, rt *Runtime, n int, main MainFunc) Result {
	t.Helper()
	nodes := rt.System().Module(machine.Cluster)[:n]
	res, err := rt.Launch(LaunchSpec{Nodes: nodes, Main: main})
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	return res
}

func TestSendRecvValue(t *testing.T) {
	rt := testRuntime(2, 0)
	runJob(t, rt, 2, func(p *Proc) error {
		if p.Rank() == 0 {
			p.SendF64(p.World(), 1, 7, []float64{1, 2, 3})
			return nil
		}
		buf := make([]float64, 3)
		n, st := p.RecvF64(p.World(), 0, 7, buf)
		if n != 3 || buf[0] != 1 || buf[2] != 3 {
			t.Errorf("recv got %v (n=%d)", buf, n)
		}
		if st.Source != 0 || st.Tag != 7 || st.Bytes != 24 {
			t.Errorf("status = %+v", st)
		}
		return nil
	})
}

func TestSendCopiesBuffer(t *testing.T) {
	// MPI value semantics: mutating the buffer after SendF64 must not affect
	// the received data.
	rt := testRuntime(2, 0)
	runJob(t, rt, 2, func(p *Proc) error {
		if p.Rank() == 0 {
			buf := []float64{42}
			p.SendF64(p.World(), 1, 0, buf)
			buf[0] = -1
			return nil
		}
		buf := make([]float64, 1)
		p.RecvF64(p.World(), 0, 0, buf)
		if buf[0] != 42 {
			t.Errorf("received %v, want 42 (send did not copy)", buf[0])
		}
		return nil
	})
}

func TestNonOvertaking(t *testing.T) {
	// Messages between one (sender, receiver, tag) pair arrive in order.
	rt := testRuntime(2, 0)
	const k = 50
	runJob(t, rt, 2, func(p *Proc) error {
		if p.Rank() == 0 {
			for i := 0; i < k; i++ {
				p.SendF64(p.World(), 1, 3, []float64{float64(i)})
			}
			return nil
		}
		buf := make([]float64, 1)
		for i := 0; i < k; i++ {
			p.RecvF64(p.World(), 0, 3, buf)
			if buf[0] != float64(i) {
				t.Errorf("message %d out of order: got %v", i, buf[0])
				return nil
			}
		}
		return nil
	})
}

func TestTagSelectivity(t *testing.T) {
	// A receive with tag B must skip an earlier message with tag A.
	rt := testRuntime(2, 0)
	runJob(t, rt, 2, func(p *Proc) error {
		if p.Rank() == 0 {
			p.SendF64(p.World(), 1, 1, []float64{1})
			p.SendF64(p.World(), 1, 2, []float64{2})
			return nil
		}
		buf := make([]float64, 1)
		// Ensure both are queued before receiving out of order.
		p.Elapse(vclock.Millisecond)
		p.RecvF64(p.World(), 0, 2, buf)
		if buf[0] != 2 {
			t.Errorf("tag-2 recv got %v", buf[0])
		}
		p.RecvF64(p.World(), 0, 1, buf)
		if buf[0] != 1 {
			t.Errorf("tag-1 recv got %v", buf[0])
		}
		return nil
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	rt := testRuntime(3, 0)
	runJob(t, rt, 3, func(p *Proc) error {
		if p.Rank() != 0 {
			p.SendF64(p.World(), 0, p.Rank(), []float64{float64(p.Rank())})
			return nil
		}
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			data, st := p.Recv(p.World(), AnySource, AnyTag)
			v := data.([]float64)[0]
			if int(v) != st.Source || st.Tag != st.Source {
				t.Errorf("wildcard recv mismatch: v=%v st=%+v", v, st)
			}
			seen[st.Source] = true
		}
		if !seen[1] || !seen[2] {
			t.Errorf("sources seen: %v", seen)
		}
		return nil
	})
}

func TestIsendIrecvWait(t *testing.T) {
	rt := testRuntime(2, 0)
	runJob(t, rt, 2, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			req := p.IsendF64(w, 1, 5, []float64{9})
			p.Wait(req)
			return nil
		}
		req := p.Irecv(w, 0, 5)
		data, st := p.Wait(req)
		if data.([]float64)[0] != 9 || st.Source != 0 {
			t.Errorf("irecv got %v / %+v", data, st)
		}
		return nil
	})
}

func TestPostedRecvBeforeSend(t *testing.T) {
	// An Irecv posted before the message arrives must match it.
	rt := testRuntime(2, 0)
	runJob(t, rt, 2, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 1 {
			req := p.Irecv(w, 0, 1)
			data, _ := p.Wait(req)
			if data.([]float64)[0] != 3 {
				t.Errorf("got %v", data)
			}
			return nil
		}
		p.Elapse(10 * vclock.Microsecond) // give rank 1 a head start in virtual time
		p.SendF64(w, 1, 1, []float64{3})
		return nil
	})
}

// TestEagerLatency checks that a minimal ping costs Table I's latency.
func TestEagerLatency(t *testing.T) {
	rt := testRuntime(2, 0)
	var recvTime vclock.Time
	runJob(t, rt, 2, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			p.Send(w, 1, 0, nil, 0)
			return nil
		}
		p.Recv(w, 0, 0)
		recvTime = p.Now()
		return nil
	})
	if got := recvTime.Micros(); math.Abs(got-1.0) > 0.05 {
		t.Errorf("zero-byte CN-CN receive completed at %vµs, want ~1.0", got)
	}
}

// TestBoosterLatency checks BN-BN latency (1.8 µs).
func TestBoosterLatency(t *testing.T) {
	rt := testRuntime(0, 2)
	nodes := rt.System().Module(machine.Booster)
	var recvTime vclock.Time
	_, err := rt.Launch(LaunchSpec{Nodes: nodes, Main: func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			p.Send(w, 1, 0, nil, 0)
			return nil
		}
		p.Recv(w, 0, 0)
		recvTime = p.Now()
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := recvTime.Micros(); math.Abs(got-1.8) > 0.05 {
		t.Errorf("zero-byte BN-BN receive completed at %vµs, want ~1.8", got)
	}
}

// TestRendezvousSynchronises checks that a large blocking send cannot
// complete before the receiver posts.
func TestRendezvousSynchronises(t *testing.T) {
	rt := testRuntime(2, 0)
	const lateness = 500 * vclock.Microsecond
	var senderEnd vclock.Time
	runJob(t, rt, 2, func(p *Proc) error {
		w := p.World()
		big := make([]float64, 1<<16) // 512 KiB: rendezvous
		if p.Rank() == 0 {
			p.SendF64(w, 1, 0, big)
			senderEnd = p.Now()
			return nil
		}
		p.Elapse(lateness)
		p.RecvF64(w, 0, 0, big)
		return nil
	})
	if senderEnd < lateness {
		t.Errorf("rendezvous sender finished at %v, before receiver posted at %v", senderEnd, lateness)
	}
}

// TestIssendCompletesAfterMatch checks synchronous-send semantics even for
// tiny messages (xPic's Listing 4 pattern).
func TestIssendCompletesAfterMatch(t *testing.T) {
	rt := testRuntime(2, 0)
	const lateness = 300 * vclock.Microsecond
	var senderEnd vclock.Time
	runJob(t, rt, 2, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			req := p.IssendF64(w, 1, 0, []float64{1}) // 8 bytes: still synchronous
			p.Wait(req)
			senderEnd = p.Now()
			return nil
		}
		p.Elapse(lateness)
		buf := make([]float64, 1)
		p.RecvF64(w, 0, 0, buf)
		return nil
	})
	if senderEnd < lateness {
		t.Errorf("Issend completed at %v before the matching recv at %v", senderEnd, lateness)
	}
}

// TestEagerSendDoesNotBlock checks that a small Send returns without a
// matching receive (buffered semantics).
func TestEagerSendDoesNotBlock(t *testing.T) {
	rt := testRuntime(2, 0)
	runJob(t, rt, 2, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			p.SendF64(w, 1, 0, []float64{1}) // must not deadlock
			p.SendF64(w, 1, 0, []float64{2})
			return nil
		}
		buf := make([]float64, 1)
		p.RecvF64(w, 0, 0, buf)
		p.RecvF64(w, 0, 0, buf)
		return nil
	})
}

// TestCrossModuleMessage exercises a Cluster→Booster message (the CN-BN
// series of Fig. 3) and checks its latency sits between CN-CN and BN-BN.
func TestCrossModuleMessage(t *testing.T) {
	rt := testRuntime(1, 1)
	nodes := []*machine.Node{rt.System().Node(0), rt.System().Node(1)}
	var recvTime vclock.Time
	_, err := rt.Launch(LaunchSpec{Nodes: nodes, Main: func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			p.Send(w, 1, 0, nil, 0)
			return nil
		}
		p.Recv(w, 0, 0)
		recvTime = p.Now()
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := recvTime.Micros(); got <= 1.0 || got >= 1.8 {
		t.Errorf("CN-BN latency %vµs, want in (1.0, 1.8)", got)
	}
}

func TestStatsAccounting(t *testing.T) {
	rt := testRuntime(2, 0)
	res := runJob(t, rt, 2, func(p *Proc) error {
		w := p.World()
		p.Compute(machine.Work{Class: machine.KernelParticle, Flops: 3e7})
		if p.Rank() == 0 {
			p.SendF64(w, 1, 0, make([]float64, 100))
		} else {
			buf := make([]float64, 100)
			p.RecvF64(w, 0, 0, buf)
		}
		return nil
	})
	for _, r := range res.Ranks {
		if r.Stats.ComputeTime <= 0 {
			t.Errorf("rank %d: no compute time", r.Rank)
		}
		if r.Stats.CommTime <= 0 {
			t.Errorf("rank %d: no comm time", r.Rank)
		}
	}
	if res.Ranks[0].Stats.BytesSent != 800 {
		t.Errorf("bytes sent = %d, want 800", res.Ranks[0].Stats.BytesSent)
	}
	if res.Ranks[1].Stats.BytesRecv != 800 {
		t.Errorf("bytes recv = %d, want 800", res.Ranks[1].Stats.BytesRecv)
	}
}

func TestMakespanIsMaxClock(t *testing.T) {
	rt := testRuntime(2, 0)
	res := runJob(t, rt, 2, func(p *Proc) error {
		if p.Rank() == 1 {
			p.Elapse(3 * vclock.Second)
		}
		return nil
	})
	if math.Abs(res.Makespan.Seconds()-3) > 1e-9 {
		t.Errorf("makespan = %v, want 3s", res.Makespan)
	}
}

func TestRankErrorPropagates(t *testing.T) {
	rt := testRuntime(1, 0)
	_, err := rt.Launch(LaunchSpec{
		Nodes: rt.System().Module(machine.Cluster)[:1],
		Main: func(p *Proc) error {
			return errTest
		},
	})
	if err == nil {
		t.Fatal("rank error not propagated")
	}
}

var errTest = errorString("boom")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestPanicInRankBecomesError(t *testing.T) {
	rt := testRuntime(1, 0)
	_, err := rt.Launch(LaunchSpec{
		Nodes: rt.System().Module(machine.Cluster)[:1],
		Main: func(p *Proc) error {
			panic("kaboom")
		},
	})
	if err == nil {
		t.Fatal("rank panic not converted to error")
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	rt := testRuntime(1, 0)
	res := runJob(t, rt, 1, func(p *Proc) error {
		// 3 GFlop of field-solver work on Haswell = 1 s (calibrated rate).
		p.Compute(machine.Work{Class: machine.KernelFieldSolver, Flops: 3e9})
		return nil
	})
	if math.Abs(res.Makespan.Seconds()-1) > 1e-9 {
		t.Errorf("makespan = %v, want 1s", res.Makespan)
	}
}

func TestUserTagRangeEnforced(t *testing.T) {
	rt := testRuntime(2, 0)
	_, err := rt.Launch(LaunchSpec{
		Nodes: rt.System().Module(machine.Cluster)[:2],
		Main: func(p *Proc) error {
			if p.Rank() == 0 {
				p.Send(p.World(), 1, MaxUserTag, nil, 0) // must panic → error
			}
			return nil // rank 1 exits without receiving
		},
	})
	if err == nil {
		t.Fatal("reserved tag accepted")
	}
}

// randomGraphMain builds a deterministic random message program from seed:
// every round each rank elapses a random skew, fires the round's random edge
// set (nonblocking sends first, then receives in edge order), and every few
// rounds the whole job couples through an allreduce. A corrupted payload is
// a rank error.
func randomGraphMain(seed uint64, n, rounds int) MainFunc {
	type edge struct {
		src, dst, elems int
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	skews := make([][]int, rounds)
	edges := make([][]edge, rounds)
	for r := range edges {
		skews[r] = make([]int, n)
		for i := range skews[r] {
			skews[r][i] = rng.Intn(8)
		}
		ne := 1 + rng.Intn(3*n)
		for e := 0; e < ne; e++ {
			src := rng.Intn(n)
			dst := rng.Intn(n)
			if src == dst {
				continue
			}
			elems := 1 << rng.Intn(14) // 8 B .. 64 KiB: eager and rendezvous
			edges[r] = append(edges[r], edge{src, dst, elems})
		}
	}
	return func(p *Proc) error {
		w := p.World()
		me := p.Rank()
		var reqs []*Request
		for r := 0; r < rounds; r++ {
			p.Elapse(vclock.Time(skews[r][me]) * vclock.Microsecond)
			reqs = reqs[:0]
			for i, e := range edges[r] {
				if e.src != me {
					continue
				}
				buf := make([]float64, e.elems)
				for j := range buf {
					buf[j] = float64(r*1000 + i)
				}
				reqs = append(reqs, p.IsendF64Shared(w, e.dst, 1000+i, buf))
			}
			for i, e := range edges[r] {
				if e.dst != me {
					continue
				}
				got, _ := p.RecvF64Shared(w, e.src, 1000+i)
				if len(got) != e.elems || got[0] != float64(r*1000+i) {
					return fmt.Errorf("round %d edge %d: got %d elems starting %v", r, i, len(got), got[0])
				}
			}
			p.Waitall(reqs...)
			if r%3 == 2 {
				p.AllreduceScalar(w, float64(me), OpMax)
			}
		}
		p.Barrier(w)
		return nil
	}
}

// exchangeMain runs rounds of skewed compute, an eager ring shift, a
// rendezvous send from each even rank to the next odd rank and an
// allreduce.
func exchangeMain(rounds int) MainFunc {
	return func(p *Proc) error {
		w := p.World()
		me, n := p.Rank(), w.Size()
		small := make([]float64, 32)    // eager
		big := make([]float64, 64*1024) // rendezvous
		for i := range small {
			small[i] = float64(me*100 + i)
		}
		for r := 0; r < rounds; r++ {
			p.Elapse(vclock.Time(1+((me*7+r*3)%5)) * vclock.Microsecond)

			right, left := (me+1)%n, (me-1+n)%n
			sreq := p.IsendF64Shared(w, right, 10+r, small)
			got, _ := p.RecvF64Shared(w, left, 10+r)
			if len(got) != len(small) || got[1] != float64(left*100+1) {
				return fmt.Errorf("round %d: ring message from %d corrupted", r, left)
			}
			p.Wait(sreq)

			if r%2 == 0 {
				if me%2 == 0 && me+1 < n {
					p.SendF64(w, me+1, 200+r, big)
				} else if me%2 == 1 {
					buf := make([]float64, len(big))
					p.RecvF64(w, me-1, 200+r, buf)
				}
			}
			p.AllreduceScalar(w, float64(me+r), OpSum)
		}
		p.Barrier(w)
		return nil
	}
}

// launchSerialAndParallel runs launch once on its own, then k more times at
// once on host goroutines, the way a sweep's worker pool runs scenarios. It
// fails the test on any launch error and returns the lone run first.
func launchSerialAndParallel(t *testing.T, k int, launch func() (Result, error)) (Result, []Result) {
	t.Helper()
	serial, err := launch()
	if err != nil {
		t.Fatalf("serial launch: %v", err)
	}
	par := make([]Result, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	wg.Add(k)
	for i := range par {
		go func(i int) {
			defer wg.Done()
			par[i], errs[i] = launch()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("parallel launch %d: %v", i, err)
		}
	}
	return serial, par
}

// sameOutcome reports every difference in makespan or final rank state
// between two runs of one job.
func sameOutcome(t *testing.T, label string, serial, par Result) {
	t.Helper()
	if serial.Makespan != par.Makespan {
		t.Errorf("%s: makespan %v (serial) != %v (parallel)", label, serial.Makespan, par.Makespan)
	}
	if len(serial.Ranks) != len(par.Ranks) {
		t.Fatalf("%s: rank count %d != %d", label, len(serial.Ranks), len(par.Ranks))
	}
	for i := range serial.Ranks {
		if serial.Ranks[i] != par.Ranks[i] {
			t.Errorf("%s: rank %d state differs:\n serial   %+v\n parallel %+v",
				label, i, serial.Ranks[i], par.Ranks[i])
		}
	}
}

// TestParallelMultiRankPerNode places two ranks on each node, so every
// rendezvous pair of exchangeMain is co-located and shares its node's
// links. A run on its own and three runs side by side on host goroutines
// must agree exactly.
func TestParallelMultiRankPerNode(t *testing.T) {
	launch := func() (Result, error) {
		rt := testRuntime(3, 0)
		cluster := rt.System().Module(machine.Cluster)
		nodes := []*machine.Node{cluster[0], cluster[0], cluster[1], cluster[1], cluster[2], cluster[2]}
		return rt.Launch(LaunchSpec{Nodes: nodes, Main: exchangeMain(4)})
	}
	serial, par := launchSerialAndParallel(t, 3, launch)
	for i, res := range par {
		sameOutcome(t, fmt.Sprintf("multi-rank run %d", i), serial, res)
	}
}

// FuzzSerialParallelEquivalence drives random message graphs — eager and
// rendezvous sizes, skewed clocks, collectives — through the kernel: every
// payload must arrive intact, and a launch on its own must agree with two
// launches of the same graph running side by side on host goroutines on the
// makespan and on every rank's final clock and accounting. packed puts two
// ranks on each node, so co-located ranks share their node's links and
// exchange over the intra-node path.
func FuzzSerialParallelEquivalence(f *testing.F) {
	f.Add(uint64(1), false)
	f.Add(uint64(7), true)
	f.Add(uint64(20180521), false)
	f.Add(uint64(0xdeadbeef), true)
	f.Fuzz(func(t *testing.T, seed uint64, packed bool) {
		n := 2 + int(seed%7)
		rounds := 2 + int((seed>>8)%5)
		main := randomGraphMain(seed, n, rounds)
		launch := func() (Result, error) {
			rt := testRuntime(n, 0)
			cluster := rt.System().Module(machine.Cluster)
			nodes := make([]*machine.Node, n)
			for i := range nodes {
				if packed {
					nodes[i] = cluster[i/2]
				} else {
					nodes[i] = cluster[i]
				}
			}
			return rt.Launch(LaunchSpec{Nodes: nodes, Main: main})
		}
		serial, par := launchSerialAndParallel(t, 2, launch)
		for i, res := range par {
			sameOutcome(t, fmt.Sprintf("seed %d packed=%v run %d", seed, packed, i), serial, res)
		}
	})
}
