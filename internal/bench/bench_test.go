package bench

import (
	"strings"
	"testing"

	"clusterbooster/internal/xpic"
)

func TestTable1Complete(t *testing.T) {
	rows := Table1()
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
	txt := RenderTable1Rows(rows)
	for _, needle := range []string{"Intel Xeon E5-2680 v3", "Intel Xeon Phi 7210", "EXTOLL", "16", "Knights Landing"} {
		if !strings.Contains(txt, needle) {
			t.Errorf("rendered Table I missing %q", needle)
		}
	}
}

func TestTable2Render(t *testing.T) {
	txt := RenderTable2Rows(Table2Rows(xpic.Table2Config()))
	for _, needle := range []string{"4096", "2048", "-xMIC-AVX512"} {
		if !strings.Contains(txt, needle) {
			t.Errorf("Table II missing %q", needle)
		}
	}
}

func TestPaperConstants(t *testing.T) {
	// Guard against accidental edits of the reference values.
	if PaperFig7.FieldAdvantage != 6.0 || PaperFig7.ParticleAdvantage != 1.35 {
		t.Error("PaperFig7 kernel ratios changed")
	}
	if PaperFig7.GainVsCluster != 1.28 || PaperFig7.GainVsBooster != 1.21 {
		t.Error("PaperFig7 gains changed")
	}
	if PaperFig8.EffSplit != 0.85 || PaperFig8.EffCluster != 0.79 || PaperFig8.EffBooster != 0.77 {
		t.Error("PaperFig8 efficiencies changed")
	}
	if PaperFig8.GainVsCluster != 1.38 || PaperFig8.GainVsBooster != 1.34 {
		t.Error("PaperFig8 gains changed")
	}
}
