package exp

import (
	"strings"
	"testing"

	"clusterbooster/internal/bench"
	"clusterbooster/internal/xpic"
)

// goldenPayload decodes the checked-in golden of a registered experiment
// into its typed payload and renders it. TestGoldensMatch holds a fresh run
// byte-identical to the golden, so a paper band that holds on the golden
// holds on every run.
func goldenPayload[T any](t *testing.T, name string) (T, string) {
	t.Helper()
	e, ok := Get(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	b, _, err := Golden(name, FindModuleRoot("."))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseDocument(b)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := parsePayload[T](doc)
	if err != nil {
		t.Fatal(err)
	}
	text, err := e.Render(doc)
	if err != nil {
		t.Fatal(err)
	}
	return payload, text
}

func TestFig3Shape(t *testing.T) {
	rows, txt := goldenPayload[[]bench.Fig3Row](t, "fig3")
	if len(rows) != len(bench.Fig3Sizes()) {
		t.Fatalf("%d rows", len(rows))
	}
	const cncn, bnbn, cnbn = bench.CNCN, bench.BNBN, bench.CNBN
	ref := bench.PaperFig3
	// Small-message latency ordering: CN-CN < CN-BN < BN-BN.
	first := rows[0]
	if !(first.LatencyUs[cncn] < first.LatencyUs[cnbn] && first.LatencyUs[cnbn] < first.LatencyUs[bnbn]) {
		t.Errorf("latency ordering broken: %+v", first.LatencyUs)
	}
	// Table I anchor points within 10%.
	if l := first.LatencyUs[cncn]; l < 0.9*ref.LatencyCNCNus || l > 1.1*ref.LatencyCNCNus {
		t.Errorf("CN-CN latency %v µs, want ≈%v", l, ref.LatencyCNCNus)
	}
	if l := first.LatencyUs[bnbn]; l < 0.9*ref.LatencyBNBNus || l > 1.1*ref.LatencyBNBNus {
		t.Errorf("BN-BN latency %v µs, want ≈%v", l, ref.LatencyBNBNus)
	}
	// Large messages converge to fabric-limited bandwidth (~10-11 GB/s
	// payload on the 100 Gbit/s Tourmalet links).
	const bwLow, bwHigh = 9000, 12500
	last := rows[len(rows)-1]
	for _, k := range []bench.PairKind{cncn, bnbn, cnbn} {
		bw := last.BandwidthMBs[k]
		if bw < bwLow || bw > bwHigh {
			t.Errorf("%v converged bandwidth %v MB/s outside [%v, %v]", k, bw, bwLow, bwHigh)
		}
	}
	// Mid-size asymmetry: Booster endpoints slower.
	mid := rows[12] // 4 KiB
	if mid.BandwidthMBs[cncn] <= mid.BandwidthMBs[bnbn] {
		t.Errorf("mid-size: CN-CN %v <= BN-BN %v MB/s", mid.BandwidthMBs[cncn], mid.BandwidthMBs[bnbn])
	}
	// The render must include both panels and reference lines.
	if !strings.Contains(txt, "bandwidth") || !strings.Contains(txt, "latency") {
		t.Error("render incomplete")
	}
}

func TestFig7Shape(t *testing.T) {
	res, txt := goldenPayload[bench.Fig7Result](t, "fig7")
	// The four §IV-C statements, as bands.
	if v := res.FieldAdvantage(); v < 5.0 || v > 7.0 {
		t.Errorf("field advantage %v, want ≈6", v)
	}
	if v := res.ParticleAdvantage(); v < 1.25 || v > 1.45 {
		t.Errorf("particle advantage %v, want ≈1.35", v)
	}
	if v := res.GainVsCluster(); v < 1.15 || v > 1.45 {
		t.Errorf("gain vs cluster %v, want ≈1.28", v)
	}
	if v := res.GainVsBooster(); v < 1.10 || v > 1.35 {
		t.Errorf("gain vs booster %v, want ≈1.21", v)
	}
	// C+B wins against both.
	if res.Split.Makespan >= res.Cluster.Makespan || res.Split.Makespan >= res.Booster.Makespan {
		t.Error("C+B does not win")
	}
	if !strings.Contains(txt, "C+B") || !strings.Contains(txt, "paper") {
		t.Error("fig7 render incomplete")
	}
}

func TestFig8Shape(t *testing.T) {
	res, txt := goldenPayload[bench.Fig8Result](t, "fig8")
	if len(res.Points) != len(fig8NodeCounts()) {
		t.Fatalf("%d points", len(res.Points))
	}
	// Runtime decreases with nodes in every mode (strong scaling works).
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Cluster.Makespan >= res.Points[i-1].Cluster.Makespan {
			t.Errorf("cluster runtime not decreasing at %d nodes", res.Points[i].Nodes)
		}
		if res.Points[i].Split.Makespan >= res.Points[i-1].Split.Makespan {
			t.Errorf("C+B runtime not decreasing at %d nodes", res.Points[i].Nodes)
		}
	}
	// Efficiency starts at 1 by definition and degrades.
	if e := res.Efficiency(xpic.ClusterOnly, 0); e != 1 {
		t.Errorf("1-node efficiency = %v", e)
	}
	for i, pt := range res.Points {
		for _, m := range bench.AllModes() {
			e := res.Efficiency(m, i)
			if e <= 0 || e > 1.02 {
				t.Errorf("%v efficiency at %d nodes = %v", m, pt.Nodes, e)
			}
		}
	}
	// C+B keeps winning at every scale.
	for i := range res.Points {
		if res.GainVsCluster(i) <= 1 || res.GainVsBooster(i) <= 1 {
			t.Errorf("C+B loses at %d nodes: %v %v", res.Points[i].Nodes,
				res.GainVsCluster(i), res.GainVsBooster(i))
		}
	}
	if !strings.Contains(txt, "efficiency") {
		t.Error("fig8 render incomplete")
	}
}
