package psmpi

import (
	"slices"
	"testing"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// TestSpawnBasic reproduces the Fig. 4 schematic: a job on the Cluster spawns
// children on the Booster; both sides have their own worlds joined by an
// inter-communicator.
func TestSpawnBasic(t *testing.T) {
	rt := testRuntime(2, 3)
	childRanks := make(chan int, 8)
	rt.Register("child", func(p *Proc) error {
		childRanks <- p.Rank()
		if p.Parent() == nil {
			t.Error("child has no parent intercommunicator")
			return nil
		}
		if p.Parent().RemoteSize() != 2 {
			t.Errorf("child sees %d parents, want 2", p.Parent().RemoteSize())
		}
		if p.Node().Module != machine.Booster {
			t.Errorf("child on %v, want Booster", p.Node().Module)
		}
		if p.World().Size() != 3 {
			t.Errorf("child world size = %d, want 3", p.World().Size())
		}
		return nil
	})
	runJob(t, rt, 2, func(p *Proc) error {
		inter, err := p.Spawn(p.World(), SpawnSpec{Binary: "child", Procs: 3, Module: machine.Booster})
		if err != nil {
			return err
		}
		if !inter.IsInter() {
			t.Error("spawn returned an intra-communicator")
		}
		if inter.RemoteSize() != 3 || inter.Size() != 2 {
			t.Errorf("intercomm sizes %d/%d, want 2 local / 3 remote", inter.Size(), inter.RemoteSize())
		}
		if p.Parent() != nil {
			t.Error("top-level job has a parent")
		}
		return nil
	})
	close(childRanks)
	seen := map[int]bool{}
	for r := range childRanks {
		seen[r] = true
	}
	if len(seen) != 3 {
		t.Errorf("child ranks seen: %v", seen)
	}
}

// TestSpawnIntercommTraffic sends data both ways across the
// inter-communicator, the xPic Listing 4 pattern (Issend/Irecv).
func TestSpawnIntercommTraffic(t *testing.T) {
	rt := testRuntime(1, 1)
	rt.Register("worker", func(p *Proc) error {
		parent := p.Parent()
		buf := p.Recv(parent, 0, 1) // from parent rank 0
		buf[0] *= 10
		buf[1] *= 10
		p.Wait(p.Issend(parent, 0, 2, buf))
		return nil
	})
	runJob(t, rt, 1, func(p *Proc) error {
		inter, err := p.Spawn(p.World(), SpawnSpec{Binary: "worker", Procs: 1, Module: machine.Booster})
		if err != nil {
			return err
		}
		p.Send(inter, 0, 1, []float64{3, 4}, 16)
		buf := p.Recv(inter, 0, 2)
		if buf[0] != 30 || buf[1] != 40 {
			t.Errorf("round trip got %v, want [30 40]", buf)
		}
		return nil
	})
}

// TestSpawnChildrenStartLater checks the virtual-time semantics: children
// boot after the spawn overhead.
func TestSpawnChildrenStartLater(t *testing.T) {
	rt := testRuntime(1, 1)
	var childStart vclock.Time
	rt.Register("lazy", func(p *Proc) error {
		childStart = p.Now()
		return nil
	})
	const preWork = 100 * vclock.Millisecond
	runJob(t, rt, 1, func(p *Proc) error {
		p.Elapse(preWork)
		_, err := p.Spawn(p.World(), SpawnSpec{Binary: "lazy", Procs: 1, Module: machine.Booster})
		return err
	})
	if childStart < preWork+rt.cfg.SpawnOverhead {
		t.Errorf("child started at %v, want >= %v", childStart, preWork+rt.cfg.SpawnOverhead)
	}
}

// TestSpawnUnknownBinary checks the error path on every parent rank.
func TestSpawnUnknownBinary(t *testing.T) {
	rt := testRuntime(2, 1)
	errs := make(chan error, 2)
	runJob(t, rt, 2, func(p *Proc) error {
		_, err := p.Spawn(p.World(), SpawnSpec{Binary: "missing", Procs: 1, Module: machine.Booster})
		errs <- err
		return nil // spawn failure is recoverable for the parents
	})
	close(errs)
	n := 0
	for err := range errs {
		if err == nil {
			t.Error("spawn of unregistered binary succeeded")
		}
		n++
	}
	if n != 2 {
		t.Errorf("expected 2 error reports, got %d", n)
	}
}

// TestSpawnMakespanIncludesChildren checks that Launch waits for spawned
// children and includes them in the makespan.
func TestSpawnMakespanIncludesChildren(t *testing.T) {
	rt := testRuntime(1, 1)
	const childWork = 2 * vclock.Second
	rt.Register("slowchild", func(p *Proc) error {
		p.Elapse(childWork)
		return nil
	})
	res := runJob(t, rt, 1, func(p *Proc) error {
		_, err := p.Spawn(p.World(), SpawnSpec{Binary: "slowchild", Procs: 1, Module: machine.Booster})
		return err
	})
	if res.Makespan < childWork {
		t.Errorf("makespan %v does not include child work %v", res.Makespan, childWork)
	}
}

// TestSpawnReverseDirection spawns from Booster onto Cluster — the actual
// xPic deployment (the Booster binary spawns the Cluster binary).
func TestSpawnReverseDirection(t *testing.T) {
	rt := testRuntime(2, 2)
	rt.Register("cluster_side", func(p *Proc) error {
		if p.Node().Module != machine.Cluster {
			t.Errorf("spawned child on %v, want Cluster", p.Node().Module)
		}
		p.Recv(p.Parent(), 0, 0)
		return nil
	})
	bNodes := rt.sys.Module(machine.Booster)
	_, err := rt.Launch(LaunchSpec{Nodes: bNodes, Main: func(p *Proc) error {
		inter, err := p.Spawn(p.World(), SpawnSpec{Binary: "cluster_side", Procs: 2, Module: machine.Cluster})
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			p.Send(inter, 0, 0, []float64{1}, 8)
			p.Send(inter, 1, 0, []float64{1}, 8)
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSpawnChildError checks that child failures surface in the launch
// result.
func TestSpawnChildError(t *testing.T) {
	rt := testRuntime(1, 1)
	rt.Register("bad", func(p *Proc) error { return errTest })
	_, err := rt.Launch(LaunchSpec{
		Nodes: rt.sys.Module(machine.Cluster)[:1],
		Main: func(p *Proc) error {
			_, err := p.Spawn(p.World(), SpawnSpec{Binary: "bad", Procs: 1, Module: machine.Booster})
			return err
		},
	})
	if err == nil {
		t.Fatal("child error not propagated to launch result")
	}
}

// TestSpawnPlacement pins the one spawn placement: children land on the
// target module's nodes in ID order, wrap round-robin when Procs exceeds the
// module's node count, and a spawn that cannot be placed fails the job with
// an error instead of a panic.
func TestSpawnPlacement(t *testing.T) {
	cases := []struct {
		name    string
		booster int
		procs   int
		module  machine.Module
		want    []string // child nodes by child rank; nil = spawn fails
	}{
		{"id order", 3, 2, machine.Booster, []string{"bn00", "bn01"}},
		{"whole module", 3, 3, machine.Booster, []string{"bn00", "bn01", "bn02"}},
		{"wraps round-robin", 3, 5, machine.Booster, []string{"bn00", "bn01", "bn02", "bn00", "bn01"}},
		{"onto the parent's module", 0, 3, machine.Cluster, []string{"cn00", "cn00", "cn00"}},
		{"module without nodes", 0, 1, machine.Booster, nil},
		{"zero procs", 3, 0, machine.Booster, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := testRuntime(1, tc.booster)
			landed := make([]string, max(tc.procs, 0))
			rt.Register("placed", func(p *Proc) error {
				landed[p.Rank()] = p.Node().Name()
				return nil
			})
			_, err := rt.Launch(LaunchSpec{
				Nodes: rt.sys.Module(machine.Cluster),
				Main: func(p *Proc) error {
					_, err := p.Spawn(p.World(), SpawnSpec{Binary: "placed", Procs: tc.procs, Module: tc.module})
					return err
				},
			})
			if tc.want == nil {
				if err == nil {
					t.Fatal("unplaceable spawn succeeded")
				}
				return
			}
			if err != nil {
				t.Fatalf("job failed: %v", err)
			}
			if !slices.Equal(landed, tc.want) {
				t.Errorf("children on %v, want %v", landed, tc.want)
			}
		})
	}
}
