package fabric

import (
	"math"
	"testing"
	"testing/quick"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

func testNet() (*Network, *machine.Node, *machine.Node, *machine.Node, *machine.Node) {
	sys := machine.New(2, 2)
	n := New(sys, Config{})
	return n, sys.Node(0), sys.Node(1), sys.Node(2), sys.Node(3)
}

// TestTable1Latencies pins the modelled zero-byte latencies to Table I:
// 1.0 µs between Cluster nodes, 1.8 µs between Booster nodes.
func TestTable1Latencies(t *testing.T) {
	n, c0, c1, b0, b1 := testNet()
	if got := n.ZeroLatency(c0, c1).Micros(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("CN-CN latency = %vµs, want 1.0", got)
	}
	if got := n.ZeroLatency(b0, b1).Micros(); math.Abs(got-1.8) > 1e-9 {
		t.Errorf("BN-BN latency = %vµs, want 1.8", got)
	}
	// Mixed pairs sit in between (Fig. 3 lower panel).
	cb := n.ZeroLatency(c0, b0).Micros()
	if cb <= 1.0 || cb >= 1.8 {
		t.Errorf("CN-BN latency = %vµs, want strictly between 1.0 and 1.8", cb)
	}
}

func TestIntraNodeLatencyCheaper(t *testing.T) {
	n, c0, c1, _, _ := testNet()
	if n.ZeroLatency(c0, c0) >= n.ZeroLatency(c0, c1) {
		t.Errorf("intra-node latency not cheaper than inter-node")
	}
}

// TestFig3SmallMessageOrdering checks the latency ordering of Fig. 3 at small
// sizes: CN-CN < CN-BN < BN-BN.
func TestFig3SmallMessageOrdering(t *testing.T) {
	n, c0, c1, b0, b1 := testNet()
	for _, size := range []int{1, 8, 64, 512, 4096} {
		cc := n.PingPongTime(c0, c1, size)
		cb := n.PingPongTime(c0, b0, size)
		bb := n.PingPongTime(b0, b1, size)
		if !(cc < cb && cb < bb) {
			t.Errorf("size %d: latencies cc=%v cb=%v bb=%v, want cc<cb<bb", size, cc, cb, bb)
		}
	}
}

// TestFig3LargeMessageConvergence checks that at large sizes all node-type
// pairs are limited by the fabric ("For large messages communication
// performance between all kinds of nodes is limited by fabric bandwidth").
func TestFig3LargeMessageConvergence(t *testing.T) {
	n, c0, c1, b0, b1 := testNet()
	const size = 16 << 20
	cc := n.Bandwidth(c0, c1, size)
	bb := n.Bandwidth(b0, b1, size)
	cb := n.Bandwidth(c0, b0, size)
	if math.Abs(cc/bb-1) > 0.02 || math.Abs(cc/cb-1) > 0.02 {
		t.Errorf("large-message bandwidths diverge: cc=%.0f bb=%.0f cb=%.0f MB/s",
			cc/1e6, bb/1e6, cb/1e6)
	}
	// And they approach (but do not exceed) the RDMA-effective link rate.
	lim := n.Config().LinkGBs * n.Config().RDMAEfficiency * 1e9
	if cc > lim {
		t.Errorf("bandwidth %v exceeds link limit %v", cc, lim)
	}
	if cc < 0.9*lim {
		t.Errorf("bandwidth %v too far below link limit %v", cc, lim)
	}
}

// TestFig3MidSizeAsymmetry checks that at eager/mid sizes the Booster pairs
// are slower ("for small message sizes communication is more efficient
// between the Cluster nodes due to the higher single thread performance").
func TestFig3MidSizeAsymmetry(t *testing.T) {
	n, c0, c1, b0, b1 := testNet()
	for _, size := range []int{1 << 10, 4 << 10, 16 << 10} {
		cc := n.Bandwidth(c0, c1, size)
		bb := n.Bandwidth(b0, b1, size)
		if cc <= bb {
			t.Errorf("size %d: CN-CN bandwidth %.0f <= BN-BN %.0f", size, cc, bb)
		}
	}
}

func TestBandwidthMonotoneInSize(t *testing.T) {
	n, c0, c1, _, _ := testNet()
	prev := 0.0
	for size := 1; size <= 1<<24; size *= 4 {
		bw := n.Bandwidth(c0, c1, size)
		// Allow the eager→rendezvous switch to bump, but bandwidth must not
		// fall below eager-path levels once in the rendezvous regime.
		if size > n.Config().EagerThreshold*4 && bw < prev*0.99 {
			t.Errorf("bandwidth fell from %.0f to %.0f at size %d", prev, bw, size)
		}
		prev = bw
	}
}

func TestEagerSendBuffered(t *testing.T) {
	// The sender of an eager message is released before the data arrives at
	// the (remote) destination.
	n, c0, c1, _, _ := testNet()
	senderFree, arrival := n.EagerSend(c0, c1, 1024, 0)
	if senderFree >= arrival {
		t.Errorf("senderFree=%v >= arrival=%v; eager send should buffer", senderFree, arrival)
	}
}

func TestEagerSendAboveThresholdPanics(t *testing.T) {
	n, c0, c1, _, _ := testNet()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for oversized eager send")
		}
	}()
	n.EagerSend(c0, c1, n.Config().EagerThreshold+1, 0)
}

func TestRendezvousWaitsForReceiver(t *testing.T) {
	// A rendezvous transfer cannot start before the receive is posted: late
	// receiver delays both arrival and sender completion.
	n, c0, c1, _, _ := testNet()
	const size = 1 << 20
	_, early := n.Rendezvous(c0, c1, size, 0, 0)
	n2, d0, d1, _, _ := testNet()
	_ = n2
	late := vclock.Time(100 * vclock.Microsecond)
	_, delayed := n2.Rendezvous(d0, d1, size, 0, late)
	if delayed < early+late-vclock.Microsecond {
		t.Errorf("late receiver did not delay rendezvous: %v vs %v", delayed, early)
	}
}

func TestLinkContentionSerialises(t *testing.T) {
	// Two rendezvous transfers out of the same source at the same time must
	// serialise on the injection link: the second arrives roughly one
	// transfer-time later.
	n, c0, c1, b0, _ := testNet()
	const size = 4 << 20
	dma := float64(size) / (n.Config().LinkGBs * n.Config().RDMAEfficiency * 1e9)
	_, a1 := n.Rendezvous(c0, c1, size, 0, 0)
	_, a2 := n.Rendezvous(c0, b0, size, 0, 0)
	gap := (a2 - a1).Seconds()
	if math.Abs(gap-dma) > dma*0.2 {
		t.Errorf("second transfer gap %.3gs, want about one DMA time %.3gs", gap, dma)
	}
}

func TestEjectionContention(t *testing.T) {
	// Two senders into one receiver serialise on the ejection link.
	n, c0, c1, b0, _ := testNet()
	const size = 4 << 20
	_, a1 := n.Rendezvous(c1, c0, size, 0, 0)
	_, a2 := n.Rendezvous(b0, c0, size, 0, 0)
	if a2 <= a1 {
		t.Errorf("ejection contention not modelled: arrivals %v, %v", a1, a2)
	}
}

func TestRDMAReadWrite(t *testing.T) {
	n, c0, _, _, _ := testNet()
	ep := n.AttachEndpoint()
	const size = 1 << 20
	done := n.RDMARead(c0, ep, size, 0)
	min := float64(size) / (n.Config().LinkGBs * 1e9)
	if done.Seconds() < min {
		t.Errorf("RDMA read %v faster than wire permits (%.3gs)", done, min)
	}
	wdone := n.RDMAWrite(c0, ep, size, 0)
	if wdone.Seconds() < min {
		t.Errorf("RDMA write %v faster than wire permits", wdone)
	}
}

func TestRDMAProportionalToSize(t *testing.T) {
	n, c0, _, _, _ := testNet()
	ep := n.AttachEndpoint()
	t1 := n.RDMAWrite(c0, ep, 1<<20, 0)
	n2, d0, _, _, _ := testNet()
	ep2 := n2.AttachEndpoint()
	t2 := n2.RDMAWrite(d0, ep2, 2<<20, 0)
	if t2 <= t1 {
		t.Errorf("RDMA time not increasing with size: %v vs %v", t1, t2)
	}
}

func TestConfigDefaults(t *testing.T) {
	n := New(machine.New(1, 1), Config{})
	cfg := n.Config()
	if cfg.EagerThreshold != 16<<10 {
		t.Errorf("default eager threshold = %d", cfg.EagerThreshold)
	}
	if cfg.LinkGBs != 12.5 {
		t.Errorf("default link = %v GB/s, want 12.5 (100 Gbit/s)", cfg.LinkGBs)
	}
	// Partial configs keep explicit values.
	n2 := New(machine.New(1, 1), Config{EagerThreshold: 1024})
	if n2.Config().EagerThreshold != 1024 {
		t.Errorf("explicit threshold overridden")
	}
	if n2.Config().LinkGBs != 12.5 {
		t.Errorf("unset field not defaulted")
	}
}

func TestQuickPingPongMonotone(t *testing.T) {
	// Property: within one transfer protocol, ping-pong time never decreases
	// with message size, for any pair of node types. Across the
	// eager/rendezvous threshold monotonicity is NOT expected: a message
	// just above the threshold moves by RDMA with no per-byte CPU cost and
	// can beat a slightly smaller eager message (the protocol-switch bump of
	// Fig. 3, pinned by TestPingPongProtocolSwitchBump).
	n, c0, c1, b0, b1 := testNet()
	thr := n.Config().EagerThreshold
	pairs := [][2]*machine.Node{{c0, c1}, {b0, b1}, {c0, b0}}
	f := func(rawA, rawB uint32, pi uint8) bool {
		p := pairs[int(pi)%len(pairs)]
		a, b := int(rawA%(1<<22)), int(rawB%(1<<22))
		if a > b {
			a, b = b, a
		}
		if (a <= thr) != (b <= thr) {
			return true // different protocols: no ordering guaranteed
		}
		return n.PingPongTime(p[0], p[1], a) <= n.PingPongTime(p[0], p[1], b)+vclock.Nanosecond
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPingPongProtocolSwitchBump(t *testing.T) {
	// Regression anchor for the property above: on a CN-BN pair, a
	// rendezvous message just above the eager threshold really is faster
	// than an eager message below it (KNL endpoint CPU copies are slow, RDMA
	// is not), so global monotonicity must not be asserted.
	n, c0, _, b0, _ := testNet()
	thr := n.Config().EagerThreshold
	eager := n.PingPongTime(c0, b0, thr)
	rendezvous := n.PingPongTime(c0, b0, thr+128)
	if rendezvous >= eager {
		t.Errorf("no bump at this calibration (eager %v <= rendezvous %v): "+
			"remove the cross-threshold exemption from TestQuickPingPongMonotone",
			eager, rendezvous)
	}
}
