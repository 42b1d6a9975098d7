package fabric

import (
	"math"
	"testing"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

func testNet() (*Network, *machine.Node, *machine.Node, *machine.Node, *machine.Node) {
	sys := machine.New(2, 2)
	n := New(sys)
	return n, sys.Node(0), sys.Node(1), sys.Node(2), sys.Node(3)
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
	n.EagerSend(c0, c1, n.cfg.EagerThreshold+1, 0)
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
	dma := float64(size) / (n.cfg.LinkGBs * n.cfg.RDMAEfficiency * 1e9)
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
	min := float64(size) / (n.cfg.LinkGBs * 1e9)
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

// TestConfigDefaults pins the prototype's fabric parameters that Table I and
// the 100 Gbit/s EXTOLL link fix.
func TestConfigDefaults(t *testing.T) {
	cfg := New(machine.New(1, 1)).cfg
	if cfg.EagerThreshold != 16<<10 {
		t.Errorf("eager threshold = %d", cfg.EagerThreshold)
	}
	if cfg.LinkGBs != 12.5 {
		t.Errorf("link = %v GB/s, want 12.5 (100 Gbit/s)", cfg.LinkGBs)
	}
}
