package psmpi

import (
	"testing"

	"clusterbooster/internal/fabric"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// TestInterCommStagingCost verifies that inter-communicator traffic pays the
// staged-path cost (the non-RDMA spawn-intercomm path of ParaStation) while
// intra-communicator traffic does not.
func TestInterCommStagingCost(t *testing.T) {
	const bytes = 1 << 20

	intra := func() vclock.Time {
		rt := testRuntime(2, 0)
		var done vclock.Time
		runJob(t, rt, 2, func(p *Proc) error {
			if p.Rank() == 0 {
				p.Send(p.World(), 1, 0, nil, bytes)
				return nil
			}
			p.Recv(p.World(), 0, 0)
			done = p.Now()
			return nil
		})
		return done
	}()

	inter := func() vclock.Time {
		rt := testRuntime(1, 1)
		rt.cfg.SpawnOverhead = vclock.Microsecond
		var done vclock.Time
		rt.Register("sink", func(p *Proc) error {
			p.Recv(p.Parent(), 0, 0)
			done = p.Now()
			return nil
		})
		runJob(t, rt, 1, func(p *Proc) error {
			ic, err := p.Spawn(p.World(), SpawnSpec{Binary: "sink", Procs: 1, Module: machine.Booster})
			if err != nil {
				return err
			}
			p.Send(ic, 0, 0, nil, bytes)
			return nil
		})
		return done
	}()

	// Staging at 0.55 GB/s on both ends adds ~2×1.9 ms for 1 MiB — the
	// inter path must be markedly slower than the RDMA intra path.
	if inter < intra+3*vclock.Millisecond {
		t.Errorf("intercomm staging unnoticeable: intra %v vs inter %v", intra, inter)
	}
}

// TestInterCommStagingConfigurable checks the constant can be tuned.
func TestInterCommStagingConfigurable(t *testing.T) {
	sysTime := func(staging float64) vclock.Time {
		sys := machine.New(1, 1)
		rt := NewRuntime(sys, fabric.New(sys), Config{
			SpawnOverhead:       vclock.Microsecond,
			InterCommStagingGBs: staging,
		})
		var done vclock.Time
		rt.Register("sink", func(p *Proc) error {
			p.Recv(p.Parent(), 0, 0)
			done = p.Now()
			return nil
		})
		nodes := sys.Module(machine.Cluster)[:1]
		if _, err := rt.Launch(LaunchSpec{Nodes: nodes, Main: func(p *Proc) error {
			ic, err := p.Spawn(p.World(), SpawnSpec{Binary: "sink", Procs: 1, Module: machine.Booster})
			if err != nil {
				return err
			}
			p.Send(ic, 0, 0, nil, 1<<20)
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
		return done
	}
	slow := sysTime(0.1)
	fast := sysTime(10)
	if slow <= fast {
		t.Errorf("staging bandwidth has no effect: %v vs %v", slow, fast)
	}
}

// TestZeroByteInterCommFree checks staging only applies to payload bytes.
func TestZeroByteInterCommFree(t *testing.T) {
	rt := testRuntime(1, 1)
	rt.cfg.SpawnOverhead = vclock.Microsecond
	var done vclock.Time
	rt.Register("sink", func(p *Proc) error {
		p.Recv(p.Parent(), 0, 0)
		done = p.Now()
		return nil
	})
	runJob(t, rt, 1, func(p *Proc) error {
		ic, err := p.Spawn(p.World(), SpawnSpec{Binary: "sink", Procs: 1, Module: machine.Booster})
		if err != nil {
			return err
		}
		p.Send(ic, 0, 0, nil, 0)
		return nil
	})
	// Zero-byte message across the intercomm: just latency + spawn, well
	// under a millisecond.
	if done > vclock.Millisecond {
		t.Errorf("zero-byte intercomm message cost %v", done)
	}
}
