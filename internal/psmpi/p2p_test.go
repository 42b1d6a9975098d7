package psmpi

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"clusterbooster/internal/fabric"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// testRuntime builds a runtime over c cluster and b booster nodes.
func testRuntime(c, b int) *Runtime {
	sys := machine.New(c, b)
	return NewRuntime(sys, fabric.New(sys), Config{})
}

// runJob launches main over the first n cluster nodes and fails the test on
// job error.
func runJob(t *testing.T, rt *Runtime, n int, main MainFunc) Result {
	t.Helper()
	nodes := rt.sys.Module(machine.Cluster)[:n]
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
			p.Send(p.World(), 1, 7, []float64{1, 2, 3}, 24)
			return nil
		}
		buf := p.Recv(p.World(), 0, 7)
		if len(buf) != 3 || buf[0] != 1 || buf[2] != 3 {
			t.Errorf("recv got %v", buf)
		}
		return nil
	})
}

// TestSendHandsOverBuffer: a body travels by reference, so the receiver
// gets the sender's own buffer, at an eager and at a rendezvous size.
func TestSendHandsOverBuffer(t *testing.T) {
	for _, n := range []int{1, 1 << 16} {
		rt := testRuntime(2, 0)
		sent := make([]float64, n)
		runJob(t, rt, 2, func(p *Proc) error {
			if p.Rank() == 0 {
				p.Send(p.World(), 1, 0, sent, 8*n)
				return nil
			}
			if got := p.Recv(p.World(), 0, 0); len(got) != n || &got[0] != &sent[0] {
				t.Errorf("%d elements: received a buffer other than the one sent", n)
			}
			return nil
		})
	}
}

// TestScratchIsOneBufferPerLaunch checks that every rank of a launch gets
// the same scratch buffer, which grows only for a longer request.
func TestScratchIsOneBufferPerLaunch(t *testing.T) {
	rt := testRuntime(4, 0)
	first := make([]*float64, 4)
	runJob(t, rt, 4, func(p *Proc) error {
		buf := p.Scratch(100 - p.Rank())
		first[p.Rank()] = &buf[0]
		p.Barrier(p.World())
		if p.Rank() == 0 {
			if grown := p.Scratch(200); len(grown) != 200 || &grown[0] == &buf[0] {
				t.Errorf("Scratch(200) after Scratch(100) did not grow the buffer")
			}
		}
		return nil
	})
	for r, f := range first {
		if f != first[0] {
			t.Errorf("rank %d got a scratch buffer other than rank 0's", r)
		}
	}
}

func TestNonOvertaking(t *testing.T) {
	// Messages between one (sender, receiver, tag) pair arrive in order.
	rt := testRuntime(2, 0)
	const k = 50
	runJob(t, rt, 2, func(p *Proc) error {
		if p.Rank() == 0 {
			for i := 0; i < k; i++ {
				p.Send(p.World(), 1, 3, []float64{float64(i)}, 8)
			}
			return nil
		}
		for i := 0; i < k; i++ {
			buf := p.Recv(p.World(), 0, 3)
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
			p.Send(p.World(), 1, 1, []float64{1}, 8)
			p.Send(p.World(), 1, 2, []float64{2}, 8)
			return nil
		}
		// Ensure both are queued before receiving out of order.
		p.Elapse(vclock.Millisecond)
		buf := p.Recv(p.World(), 0, 2)
		if buf[0] != 2 {
			t.Errorf("tag-2 recv got %v", buf[0])
		}
		buf = p.Recv(p.World(), 0, 1)
		if buf[0] != 1 {
			t.Errorf("tag-1 recv got %v", buf[0])
		}
		return nil
	})
}

func TestIsendIrecvWait(t *testing.T) {
	rt := testRuntime(2, 0)
	runJob(t, rt, 2, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			buf := p.GetF64(1)
			buf[0] = 9
			p.Wait(p.Isend(w, 1, 5, buf))
			return nil
		}
		req := p.Irecv(w, 0, 5)
		data := p.Wait(req)
		if data[0] != 9 {
			t.Errorf("irecv got %v", data)
		}
		p.PutF64(data)
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
			data := p.Wait(req)
			if data[0] != 3 {
				t.Errorf("got %v", data)
			}
			return nil
		}
		p.Elapse(10 * vclock.Microsecond) // give rank 1 a head start in virtual time
		p.Send(w, 1, 1, []float64{3}, 8)
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
	nodes := rt.sys.Module(machine.Booster)
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
			p.Send(w, 1, 0, big, 8*len(big))
			senderEnd = p.Now()
			return nil
		}
		p.Elapse(lateness)
		p.Recv(w, 0, 0)
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
			buf := p.GetF64(1) // 8 bytes: still synchronous
			buf[0] = 1
			p.Wait(p.Issend(w, 1, 0, buf))
			senderEnd = p.Now()
			return nil
		}
		p.Elapse(lateness)
		p.PutF64(p.Recv(w, 0, 0))
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
			p.Send(w, 1, 0, []float64{1}, 8) // must not deadlock
			p.Send(w, 1, 0, []float64{2}, 8)
			return nil
		}
		p.Recv(w, 0, 0)
		p.Recv(w, 0, 0)
		return nil
	})
}

// TestCrossModuleMessage exercises a Cluster→Booster message (the CN-BN
// series of Fig. 3) and checks its latency sits between CN-CN and BN-BN.
func TestCrossModuleMessage(t *testing.T) {
	rt := testRuntime(1, 1)
	nodes := []*machine.Node{rt.sys.Node(0), rt.sys.Node(1)}
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
		Nodes: rt.sys.Module(machine.Cluster)[:1],
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
		Nodes: rt.sys.Module(machine.Cluster)[:1],
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
		Nodes: rt.sys.Module(machine.Cluster)[:2],
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

// TestRankOutOfRange: a receive from, or a send to, a rank outside the
// communicator ends the job with an error at once. A receive could never
// match, so without the check it would wait for the kernel's deadlock
// report.
func TestRankOutOfRange(t *testing.T) {
	ops := []struct {
		name, want string
		op         func(p *Proc, rank int)
	}{
		{"Recv", "psmpi: source rank out of range", func(p *Proc, r int) { p.Recv(p.World(), r, 0) }},
		{"Irecv", "psmpi: source rank out of range", func(p *Proc, r int) { p.Irecv(p.World(), r, 0) }},
		{"Send", "psmpi: destination rank out of range", func(p *Proc, r int) { p.Send(p.World(), r, 0, nil, 0) }},
	}
	for _, o := range ops {
		for _, rank := range []int{-1, 2} {
			rt := testRuntime(2, 0)
			_, err := rt.Launch(LaunchSpec{
				Nodes: rt.sys.Module(machine.Cluster)[:2],
				Main: func(p *Proc) error {
					if p.Rank() == 0 {
						o.op(p, rank)
					}
					return nil
				},
			})
			if err == nil || !strings.Contains(err.Error(), o.want) || strings.Contains(err.Error(), "deadlock") {
				t.Errorf("%s with rank %d of 2: error %v, want %q", o.name, rank, err, o.want)
			}
		}
	}
}

// TestWaitallParksOnPendingIrecv: Waitall on a receive whose message has
// not been sent yet parks the rank until it arrives.
func TestWaitallParksOnPendingIrecv(t *testing.T) {
	const late = vclock.Millisecond
	runJob(t, testRuntime(2, 0), 2, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			p.Elapse(late)
			p.Send(w, 1, 0, []float64{1}, 8)
			return nil
		}
		p.Waitall(p.Irecv(w, 0, 0))
		if p.Now() < late {
			t.Errorf("Waitall returned at %v, before the message was sent at %v", p.Now(), late)
		}
		return nil
	})
}

// TestMatchingIsPerCommunicator: a message never matches a receive on
// another communicator, even from the same source rank with the same tag.
// The parent's rank 0 sends to child 1 on the inter-communicator, and child
// 0 sends to it on the children's world, with tag 5 and then tag 6. Child 1
// posts its tag-5 world receive before either message arrives (the posted
// path), and asks for tag 6 only once both wait in its queue (the
// unexpected path), the parent's first.
func TestMatchingIsPerCommunicator(t *testing.T) {
	const parent5, parent6, sibling5, sibling6 = 5, 6, 105, 106
	rt := testRuntime(1, 2)
	rt.Register("child", func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			p.Elapse(vclock.Millisecond)
			p.Send(w, 1, 5, []float64{sibling5}, 8)
			p.Send(w, 1, 6, []float64{sibling6}, 8)
			return nil
		}
		req := p.Irecv(w, 0, 5)
		if got := p.Recv(p.Parent(), 0, 5)[0]; got != parent5 {
			t.Errorf("inter-communicator tag 5 got %v", got)
		}
		if got := p.Wait(req)[0]; got != sibling5 {
			t.Errorf("world tag 5 got %v", got)
		}
		p.Elapse(vclock.Millisecond)
		if got := p.Recv(w, 0, 6)[0]; got != sibling6 {
			t.Errorf("world tag 6 got %v", got)
		}
		if got := p.Recv(p.Parent(), 0, 6)[0]; got != parent6 {
			t.Errorf("inter-communicator tag 6 got %v", got)
		}
		return nil
	})
	runJob(t, rt, 1, func(p *Proc) error {
		inter, err := p.Spawn(p.World(), SpawnSpec{Binary: "child", Procs: 2, Module: machine.Booster})
		if err != nil {
			return err
		}
		p.Elapse(10 * vclock.Microsecond)
		p.Send(inter, 1, 5, []float64{parent5}, 8)
		p.Send(inter, 1, 6, []float64{parent6}, 8)
		return nil
	})
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
				buf := p.GetF64(e.elems)
				for j := range buf {
					buf[j] = float64(r*1000 + i)
				}
				reqs = append(reqs, p.Isend(w, e.dst, 1000+i, buf))
			}
			for i, e := range edges[r] {
				if e.dst != me {
					continue
				}
				got := p.Recv(w, e.src, 1000+i)
				if len(got) != e.elems || got[0] != float64(r*1000+i) {
					return fmt.Errorf("round %d edge %d: got %d elems starting %v", r, i, len(got), got[0])
				}
				p.PutF64(got)
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
			out := p.GetF64(len(small))
			copy(out, small)
			sreq := p.Isend(w, right, 10+r, out)
			got := p.Recv(w, left, 10+r)
			if len(got) != len(small) || got[1] != float64(left*100+1) {
				return fmt.Errorf("round %d: ring message from %d corrupted", r, left)
			}
			p.PutF64(got)
			p.Wait(sreq)

			if r%2 == 0 {
				if me%2 == 0 && me+1 < n {
					p.Send(w, me+1, 200+r, big, 8*len(big))
				} else if me%2 == 1 {
					p.Recv(w, me-1, 200+r)
				}
			}
			p.AllreduceScalar(w, float64(me+r), OpSum)
		}
		p.Barrier(w)
		return nil
	}
}

// outcome is what one launch of a job ends with: its makespan and each
// initial rank's final clock.
type outcome struct {
	makespan vclock.Time
	clocks   []vclock.Time
}

// launchOutcome launches main on nodes and records each rank's clock as
// its main returns.
func launchOutcome(rt *Runtime, nodes []*machine.Node, main MainFunc) (outcome, error) {
	o := outcome{clocks: make([]vclock.Time, len(nodes))}
	res, err := rt.Launch(LaunchSpec{Nodes: nodes, Main: func(p *Proc) error {
		err := main(p)
		o.clocks[p.Rank()] = p.Now()
		return err
	}})
	o.makespan = res.Makespan
	return o, err
}

// launchSerialAndParallel runs launch once on its own, then k more times at
// once on host goroutines, the way a sweep's worker pool runs scenarios. It
// fails the test on any launch error and returns the lone run first.
func launchSerialAndParallel(t *testing.T, k int, launch func() (outcome, error)) (outcome, []outcome) {
	t.Helper()
	serial, err := launch()
	if err != nil {
		t.Fatalf("serial launch: %v", err)
	}
	par := make([]outcome, k)
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

// sameOutcome reports every difference in makespan or final rank clock
// between two runs of one job.
func sameOutcome(t *testing.T, label string, serial, par outcome) {
	t.Helper()
	if serial.makespan != par.makespan {
		t.Errorf("%s: makespan %v (serial) != %v (parallel)", label, serial.makespan, par.makespan)
	}
	for i := range serial.clocks {
		if serial.clocks[i] != par.clocks[i] {
			t.Errorf("%s: rank %d clock %v (serial) != %v (parallel)", label, i, serial.clocks[i], par.clocks[i])
		}
	}
}

// TestParallelMultiRankPerNode places two ranks on each node, so every
// rendezvous pair of exchangeMain is co-located and shares its node's
// links. A run on its own and three runs side by side on host goroutines
// must agree exactly.
func TestParallelMultiRankPerNode(t *testing.T) {
	launch := func() (outcome, error) {
		rt := testRuntime(3, 0)
		cluster := rt.sys.Module(machine.Cluster)
		nodes := []*machine.Node{cluster[0], cluster[0], cluster[1], cluster[1], cluster[2], cluster[2]}
		return launchOutcome(rt, nodes, exchangeMain(4))
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
// makespan and on every rank's final clock. packed puts two
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
		launch := func() (outcome, error) {
			rt := testRuntime(n, 0)
			cluster := rt.sys.Module(machine.Cluster)
			nodes := make([]*machine.Node, n)
			for i := range nodes {
				if packed {
					nodes[i] = cluster[i/2]
				} else {
					nodes[i] = cluster[i]
				}
			}
			return launchOutcome(rt, nodes, main)
		}
		serial, par := launchSerialAndParallel(t, 2, launch)
		for i, res := range par {
			sameOutcome(t, fmt.Sprintf("seed %d packed=%v run %d", seed, packed, i), serial, res)
		}
	})
}

// TestSendPriceDependsOnlyOnSize sends one message with a nil body and one
// with a []float64 body of the same byte count, at an eager and a rendezvous
// size: both ranks must end at the same virtual time, and the sizes-only
// message must arrive as a nil body.
func TestSendPriceDependsOnlyOnSize(t *testing.T) {
	for _, size := range []int{1 << 10, 16 << 20} {
		run := func(body []float64) [2]vclock.Time {
			var now [2]vclock.Time
			runJob(t, testRuntime(2, 0), 2, func(p *Proc) error {
				if p.Rank() == 0 {
					p.Send(p.World(), 1, 5, body, size)
				} else {
					data := p.Recv(p.World(), 0, 5)
					if body == nil && data != nil {
						t.Errorf("size %d: sizes-only message arrived with a %d-element body", size, len(data))
					}
				}
				now[p.Rank()] = p.Now()
				return nil
			})
			return now
		}
		sized, full := run(nil), run(make([]float64, size/8))
		if sized != full {
			t.Errorf("size %d: nil body ends at %v, []float64 body at %v", size, sized, full)
		}
	}
}
