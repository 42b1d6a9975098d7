package clusterbooster

import (
	"testing"

	"clusterbooster/internal/xpic"
)

func TestPrototypeFacade(t *testing.T) {
	sys := Prototype()
	if sys.Machine == nil || sys.Runtime == nil || sys.Network == nil {
		t.Fatal("prototype incomplete")
	}
	if len(sys.NVMe) != 24 || len(sys.NAM) != 2 || sys.FS == nil {
		t.Fatal("storage stack incomplete")
	}
}

func TestXPicThroughFacade(t *testing.T) {
	sys := New(1, 1, Options{WithoutStorage: true})
	cfg := XPicQuickConfig(4)
	rep, err := sys.RunXPic(xpic.SplitCB, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestTable2ConfigIsPaperWorkload(t *testing.T) {
	cfg := XPicTable2Config()
	if cfg.Cells() != 4096 || cfg.PPC != 2048 {
		t.Fatalf("Table II workload wrong: %d cells, %d ppc", cfg.Cells(), cfg.PPC)
	}
}
