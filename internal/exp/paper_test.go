package exp

import (
	"strings"
	"testing"

	"clusterbooster/internal/sweep"
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
	rows, txt := goldenPayload[[]fig3Row](t, "fig3")
	if len(rows) != len(fig3Sizes()) {
		t.Fatalf("%d rows", len(rows))
	}
	const cncn, bnbn, cnbn = pairCNCN, pairBNBN, pairCNBN
	ref := paperFig3
	// Small-message latency ordering: CN-CN < CN-BN < BN-BN.
	first := rows[0]
	if !(first.LatencyUs[cncn] < first.LatencyUs[cnbn] && first.LatencyUs[cnbn] < first.LatencyUs[bnbn]) {
		t.Errorf("latency ordering broken: %+v", first.LatencyUs)
	}
	// Table I anchor points within 10%.
	if l := first.LatencyUs[cncn]; l < 0.9*ref.latencyCNCNus || l > 1.1*ref.latencyCNCNus {
		t.Errorf("CN-CN latency %v µs, want ≈%v", l, ref.latencyCNCNus)
	}
	if l := first.LatencyUs[bnbn]; l < 0.9*ref.latencyBNBNus || l > 1.1*ref.latencyBNBNus {
		t.Errorf("BN-BN latency %v µs, want ≈%v", l, ref.latencyBNBNus)
	}
	// Large messages converge to fabric-limited bandwidth (~10-11 GB/s
	// payload on the 100 Gbit/s Tourmalet links).
	const bwLow, bwHigh = 9000, 12500
	last := rows[len(rows)-1]
	for _, k := range []pairKind{cncn, bnbn, cnbn} {
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
	res, txt := goldenPayload[fig7Result](t, "fig7")
	// The four §IV-C statements, as bands.
	if v := res.fieldAdvantage(); v < 5.0 || v > 7.0 {
		t.Errorf("field advantage %v, want ≈6", v)
	}
	if v := res.particleAdvantage(); v < 1.25 || v > 1.45 {
		t.Errorf("particle advantage %v, want ≈1.35", v)
	}
	if v := res.gainVsCluster(); v < 1.15 || v > 1.45 {
		t.Errorf("gain vs cluster %v, want ≈1.28", v)
	}
	if v := res.gainVsBooster(); v < 1.10 || v > 1.35 {
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
	res, txt := goldenPayload[fig8Result](t, "fig8")
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
	// efficiency starts at 1 by definition and degrades.
	if e := res.efficiency(xpic.ClusterOnly, 0); e != 1 {
		t.Errorf("1-node efficiency = %v", e)
	}
	for i, pt := range res.Points {
		for _, m := range allModes() {
			e := res.efficiency(m, i)
			if e <= 0 || e > 1.02 {
				t.Errorf("%v efficiency at %d nodes = %v", m, pt.Nodes, e)
			}
		}
	}
	// C+B keeps winning at every scale.
	for i := range res.Points {
		if res.gainVsCluster(i) <= 1 || res.gainVsBooster(i) <= 1 {
			t.Errorf("C+B loses at %d nodes: %v %v", res.Points[i].Nodes,
				res.gainVsCluster(i), res.gainVsBooster(i))
		}
	}
	if !strings.Contains(txt, "efficiency") {
		t.Error("fig8 render incomplete")
	}
}

func TestTable1Complete(t *testing.T) {
	rows := table1()
	want := map[string]bool{
		"Processor": false, "Cores per node": false, "MPI latency": false,
		"Node count": false, "Peak performance": false,
	}
	for _, r := range rows {
		if _, ok := want[r.Feature]; ok {
			want[r.Feature] = true
		}
		if r.Cluster == "" || r.Booster == "" {
			t.Errorf("row %q has empty cells", r.Feature)
		}
	}
	for f, seen := range want {
		if !seen {
			t.Errorf("Table I row %q missing", f)
		}
	}
	txt := renderTable1Rows(rows)
	for _, needle := range []string{"Intel Xeon E5-2680 v3", "Intel Xeon Phi 7210", "EXTOLL", "16", "Knights Landing"} {
		if !strings.Contains(txt, needle) {
			t.Errorf("rendered Table I missing %q", needle)
		}
	}
}

func TestTable2Render(t *testing.T) {
	txt := renderTable2Rows(table2Rows(xpic.Table2Config()))
	for _, needle := range []string{"4096", "2048", "-xMIC-AVX512"} {
		if !strings.Contains(txt, needle) {
			t.Errorf("Table II missing %q", needle)
		}
	}
}

func TestPaperConstants(t *testing.T) {
	// Guard against accidental edits of the reference values.
	if paperFig7.fieldAdvantage != 6.0 || paperFig7.particleAdvantage != 1.35 {
		t.Error("paperFig7 kernel ratios changed")
	}
	if paperFig7.gainVsCluster != 1.28 || paperFig7.gainVsBooster != 1.21 {
		t.Error("paperFig7 gains changed")
	}
	if paperFig8.effSplit != 0.85 || paperFig8.effCluster != 0.79 || paperFig8.effBooster != 0.77 {
		t.Error("paperFig8 efficiencies changed")
	}
	if paperFig8.gainVsCluster != 1.38 || paperFig8.gainVsBooster != 1.34 {
		t.Error("paperFig8 gains changed")
	}
}

// TestArtifactErrorsKeepOnePrefix: the Fig. 3/7/8 reassemblers return a
// failed scenario's sweep error as it is, so the registry's "exp: NAME: "
// wrap is its only prefix.
func TestArtifactErrorsKeepOnePrefix(t *testing.T) {
	rs := sweep.ResultSet{Scenarios: 1, Failures: 1, Results: []sweep.Result{{Name: "x", Error: "boom"}}}
	want := rs.FirstError().Error()
	_, err7 := fig7From(rs)
	_, err8 := fig8From(fig8NodeCounts(), rs)
	_, err3 := fig3RowsFrom(fig3Sizes(), rs)
	for _, err := range []error{err7, err8, err3} {
		if err == nil || err.Error() != want {
			t.Errorf("reassembly error %v, want %q", err, want)
		}
	}
}
