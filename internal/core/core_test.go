package core

import (
	"testing"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/psmpi"
	"clusterbooster/internal/xpic"
)

func TestPrototypeLayout(t *testing.T) {
	s := Prototype()
	if s.Machine.NodeCount(machine.Cluster) != 16 || s.Machine.NodeCount(machine.Booster) != 8 {
		t.Fatalf("prototype has %d/%d nodes", s.Machine.NodeCount(machine.Cluster), s.Machine.NodeCount(machine.Booster))
	}
	if s.FS == nil || len(s.NVMe) != 24 || len(s.NAM) != 2 {
		t.Fatalf("storage stack incomplete: fs=%v nvme=%d nam=%d", s.FS != nil, len(s.NVMe), len(s.NAM))
	}
	if s.Runtime == nil || s.Network == nil {
		t.Fatal("core services missing")
	}
}

func TestWithoutStorage(t *testing.T) {
	s := New(2, 2, Options{WithoutStorage: true})
	if s.FS != nil || s.NVMe != nil || s.NAM != nil {
		t.Fatal("storage built despite WithoutStorage")
	}
}

func TestNodeAccessors(t *testing.T) {
	s := New(4, 2, Options{WithoutStorage: true})
	cn, err := s.ClusterNodes(4)
	if err != nil || len(cn) != 4 {
		t.Fatalf("cluster nodes: %v", err)
	}
	if _, err := s.ClusterNodes(5); err == nil {
		t.Fatal("overcommitted cluster request accepted")
	}
	bn, err := s.BoosterNodes(2)
	if err != nil || bn[0].Module != machine.Booster {
		t.Fatalf("booster nodes: %v", err)
	}
	if _, err := s.BoosterNodes(3); err == nil {
		t.Fatal("overcommitted booster request accepted")
	}
}

// TestSpawnLandsOnBooster checks the runtime is wired to the system's own
// machine: a spawn from a Cluster node onto the Booster places its children
// on that machine's Booster nodes, in ID order.
func TestSpawnLandsOnBooster(t *testing.T) {
	s := New(2, 3, Options{WithoutStorage: true})
	booster := s.Machine.Module(machine.Booster)
	landed := make([]*machine.Node, len(booster))
	s.Runtime.Register("probe", func(p *psmpi.Proc) error {
		landed[p.Rank()] = p.Node()
		return nil
	})
	nodes, _ := s.ClusterNodes(1)
	_, err := s.Runtime.Launch(psmpi.LaunchSpec{Nodes: nodes, Main: func(p *psmpi.Proc) error {
		_, err := p.Spawn(p.World(), psmpi.SpawnSpec{Binary: "probe", Procs: len(booster), Module: machine.Booster})
		return err
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range landed {
		if n == nil {
			t.Errorf("child %d never ran", i)
		} else if n != booster[i] {
			t.Errorf("child %d on %s, want %s", i, n.Name(), booster[i].Name())
		}
	}
}

func TestRunXPicAllModes(t *testing.T) {
	cfg := xpic.QuickConfig(4)
	for _, mode := range []xpic.Mode{xpic.ClusterOnly, xpic.BoosterOnly, xpic.SplitCB} {
		s := New(2, 2, Options{WithoutStorage: true})
		rep, err := s.RunXPic(mode, 2, cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if rep.Mode != mode || rep.Makespan <= 0 {
			t.Errorf("%v: report %+v", mode, rep)
		}
	}
}

func TestRunXPicSplitNeedsBothModules(t *testing.T) {
	s := New(1, 2, Options{WithoutStorage: true})
	if _, err := s.RunXPic(xpic.SplitCB, 2, xpic.QuickConfig(2)); err == nil {
		t.Fatal("split with too few cluster nodes accepted")
	}
}
