package exp

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"clusterbooster/internal/fabric"
	"clusterbooster/internal/machine"
)

// The tests in this file check the fabric model through the measurement the
// fig3 golden reports: fig3Scenarios runs one fresh two-rank psmpi job
// per node-type pair and reports the first message's one-way latency and
// the bandwidth of a stream of messages.

// pairs holds one metric for the CN-CN, BN-BN and CN-BN series.
type pairs struct{ cc, bb, cb float64 }

// fig3 measures every node-type pair at one message size and returns the
// latencies in µs and the bandwidths in MB/s.
func fig3(t *testing.T, size int) (latUs, bwMBs pairs) {
	t.Helper()
	var lat, bw [3]float64
	for i, sc := range fig3Scenarios([]int{size}) {
		out, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		lat[i], bw[i] = out.Metrics["latency_us"], out.Metrics["bandwidth_MBs"]
	}
	return pairs{lat[0], lat[1], lat[2]}, pairs{bw[0], bw[1], bw[2]}
}

// eagerMax is the largest message the fabric sends eagerly (pinned by
// fabric's TestConfigDefaults and by TestPingPongProtocolSwitchBump).
const eagerMax = 16 << 10

// TestTable1Latencies pins the zero-byte latencies to Table I: 1.0 µs
// between Cluster nodes, 1.8 µs between Booster nodes.
func TestTable1Latencies(t *testing.T) {
	lat, _ := fig3(t, 0)
	if math.Abs(lat.cc-1.0) > 1e-9 {
		t.Errorf("CN-CN latency = %vµs, want 1.0", lat.cc)
	}
	if math.Abs(lat.bb-1.8) > 1e-9 {
		t.Errorf("BN-BN latency = %vµs, want 1.8", lat.bb)
	}
	// Mixed pairs sit in between (Fig. 3 lower panel).
	if lat.cb <= 1.0 || lat.cb >= 1.8 {
		t.Errorf("CN-BN latency = %vµs, want strictly between 1.0 and 1.8", lat.cb)
	}
}

// TestFig3SmallMessageOrdering checks the latency ordering of Fig. 3 at small
// sizes: CN-CN < CN-BN < BN-BN.
func TestFig3SmallMessageOrdering(t *testing.T) {
	for _, size := range []int{1, 8, 64, 512, 4096} {
		lat, _ := fig3(t, size)
		if !(lat.cc < lat.cb && lat.cb < lat.bb) {
			t.Errorf("size %d: latencies cc=%v cb=%v bb=%v, want cc<cb<bb", size, lat.cc, lat.cb, lat.bb)
		}
	}
}

// TestFig3LargeMessageConvergence checks that at large sizes all node-type
// pairs are limited by the fabric ("For large messages communication
// performance between all kinds of nodes is limited by fabric bandwidth").
func TestFig3LargeMessageConvergence(t *testing.T) {
	_, bw := fig3(t, 16<<20)
	if math.Abs(bw.cc/bw.bb-1) > 0.02 || math.Abs(bw.cc/bw.cb-1) > 0.02 {
		t.Errorf("large-message bandwidths diverge: cc=%.0f bb=%.0f cb=%.0f MB/s", bw.cc, bw.bb, bw.cb)
	}
	// And they approach (but do not exceed) the RDMA payload rate of the
	// 100 Gbit/s EXTOLL link (88% of 12.5 GB/s).
	lim := machine.ClusterNode().LinkGbits / 8 * 0.88 * 1e3
	if bw.cc > lim {
		t.Errorf("bandwidth %.0f MB/s exceeds link limit %.0f", bw.cc, lim)
	}
	if bw.cc < 0.9*lim {
		t.Errorf("bandwidth %.0f MB/s too far below link limit %.0f", bw.cc, lim)
	}
}

// TestFig3MidSizeAsymmetry checks that at eager/mid sizes the Booster pairs
// are slower ("for small message sizes communication is more efficient
// between the Cluster nodes due to the higher single thread performance").
func TestFig3MidSizeAsymmetry(t *testing.T) {
	for _, size := range []int{1 << 10, 4 << 10, 16 << 10} {
		if _, bw := fig3(t, size); bw.cc <= bw.bb {
			t.Errorf("size %d: CN-CN bandwidth %.0f <= BN-BN %.0f", size, bw.cc, bw.bb)
		}
	}
}

func TestBandwidthMonotoneInSize(t *testing.T) {
	prev := 0.0
	for size := 1; size <= 1<<24; size *= 4 {
		_, bw := fig3(t, size)
		// Allow the eager→rendezvous switch to bump, but bandwidth must not
		// fall below eager-path levels once in the rendezvous regime.
		if size > 4*eagerMax && bw.cc < prev*0.99 {
			t.Errorf("bandwidth fell from %.0f to %.0f at size %d", prev, bw.cc, size)
		}
		prev = bw.cc
	}
}

func TestQuickPingPongMonotone(t *testing.T) {
	// Property: within one transfer protocol, latency never decreases with
	// message size, for any pair of node types. Across the eager/rendezvous
	// threshold monotonicity is NOT expected: a message just above the
	// threshold moves by RDMA with no per-byte CPU cost and can beat a
	// slightly smaller eager message (the protocol-switch bump of Fig. 3,
	// pinned by TestPingPongProtocolSwitchBump).
	latency := func(pair, size int) float64 {
		out, err := fig3Scenarios([]int{size})[pair].Run()
		if err != nil {
			t.Fatal(err)
		}
		return out.Metrics["latency_us"]
	}
	f := func(rawA, rawB uint32, pi uint8) bool {
		pair := int(pi) % 3
		a, b := int(rawA%(1<<22)), int(rawB%(1<<22))
		if a > b {
			a, b = b, a
		}
		if (a <= eagerMax) != (b <= eagerMax) {
			return true // different protocols: no ordering guaranteed
		}
		return latency(pair, a) <= latency(pair, b)+1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPingPongProtocolSwitchBump(t *testing.T) {
	// Regression anchor for the property above: on a CN-BN pair, a
	// rendezvous message just above the eager threshold really is faster
	// than an eager message below it (KNL endpoint CPU copies are slow, RDMA
	// is not), so global monotonicity must not be asserted.
	if net := fabric.New(machine.New(1, 0)); !net.Eager(eagerMax) || net.Eager(eagerMax+1) {
		t.Fatalf("eager threshold is not %d bytes", eagerMax)
	}
	lat, _ := fig3(t, eagerMax)
	above, _ := fig3(t, eagerMax+128)
	if above.cb >= lat.cb {
		t.Errorf("no bump at this calibration (eager %vµs <= rendezvous %vµs): "+
			"remove the cross-threshold exemption from TestQuickPingPongMonotone",
			lat.cb, above.cb)
	}
}

// TestMeasurePairAllocatesNoPayload pins that a Fig. 3 measurement sends
// sizes only. A 16 MiB two-rank job allocates about 7–9 KiB (system, ranks,
// envelopes); one payload buffer of the message size would cost 16 MiB.
func TestMeasurePairAllocatesNoPayload(t *testing.T) {
	const size, limit = 16 << 20, 64 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := measurePair(pairCNBN, size); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("measurePair(pairCNBN, %d) allocated %d bytes, want < %d", size, got, limit)
	}
}
