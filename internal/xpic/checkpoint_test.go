package xpic

import (
	"bytes"
	"encoding/binary"
	"testing"

	"clusterbooster/internal/beegfs"
	"clusterbooster/internal/fabric"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/nvme"
	"clusterbooster/internal/psmpi"
	"clusterbooster/internal/scr"
)

// TestSnapshotRoundTrip checks that Restore(Snapshot()) is the identity.
func TestSnapshotRoundTrip(t *testing.T) {
	rt, sys := newRuntime(1, 0)
	cfg := QuickConfig(5)
	_, err := rt.Launch(psmpi.LaunchSpec{
		Nodes: clusterNodes(sys, 1),
		Main: func(p *psmpi.Proc) error {
			comm := p.World()
			sim := NewSim(p, comm, cfg)
			for sim.Step < 5 {
				sim.Advance(p, comm)
			}
			snap := sim.Snapshot()
			before := sim.Checksum()

			other := NewSim(p, comm, cfg)
			if err := other.Restore(snap); err != nil {
				return err
			}
			if other.Step != 5 {
				t.Errorf("restored step = %d", other.Step)
			}
			if other.Checksum() != before {
				t.Errorf("checksum after restore differs: %v vs %v", other.Checksum(), before)
			}
			// Fields restored bit-exactly.
			if !bytes.Equal(snap, other.Snapshot()) {
				t.Error("double snapshot differs")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRestartEquivalence is the resilience integration test: a run that
// checkpoints at step 6, "crashes" at step 9 and restarts from the
// checkpoint must reach exactly the same state at step 12 as an undisturbed
// run — bit-for-bit (§III-D's restart correctness).
func TestRestartEquivalence(t *testing.T) {
	cfg := QuickConfig(12)
	run := func(interrupted bool) float64 {
		rt, sys := newRuntime(2, 0)
		var sum float64
		results := make(chan float64, 2)
		_, err := rt.Launch(psmpi.LaunchSpec{
			Nodes: clusterNodes(sys, 2),
			Main: func(p *psmpi.Proc) error {
				comm := p.World()
				sim := NewSim(p, comm, cfg)
				var snap []byte
				for sim.Step < 9 {
					sim.Advance(p, comm)
					if sim.Step == 6 {
						snap = sim.Snapshot()
					}
				}
				if interrupted {
					// Crash: throw the state away, restart from checkpoint.
					sim = NewSim(p, comm, cfg)
					if err := sim.Restore(snap); err != nil {
						return err
					}
				}
				for sim.Step < 12 {
					sim.Advance(p, comm)
				}
				results <- sim.Checksum()
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		sum = <-results + <-results
		return sum
	}
	plain := run(false)
	restarted := run(true)
	if plain != restarted {
		t.Fatalf("restart changed physics: %v vs %v", plain, restarted)
	}
}

// TestCheckpointThroughSCR stores xPic snapshots through the full SCR stack
// (local NVMe level) and restores them.
func TestCheckpointThroughSCR(t *testing.T) {
	sys := machine.New(2, 0)
	cfg := QuickConfig(4)
	nodes := clusterNodes(sys, 2)
	devs := map[int]*nvme.Device{}
	for _, n := range nodes {
		devs[n.ID] = nvme.New(nvme.P3700())
	}
	net := fabric.New(sys)
	rt := psmpi.NewRuntime(sys, net, psmpi.Config{})
	mgr, err := scr.New(scr.Config{BuddyEvery: 1}, net, beegfs.New(net), nodes, devs)
	if err != nil {
		t.Fatal(err)
	}

	snaps := make([][]byte, 2)
	_, err = rt.Launch(psmpi.LaunchSpec{
		Nodes: nodes,
		Main: func(p *psmpi.Proc) error {
			comm := p.World()
			sim := NewSim(p, comm, cfg)
			for sim.Step < 4 {
				sim.Advance(p, comm)
			}
			snaps[p.Rank()] = sim.Snapshot()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	levels := mgr.BeginCheckpoint(4)
	for rank := 0; rank < 2; rank++ {
		if _, err := mgr.SubmitCheckpoint(ioev.At(0), rank, 4, snaps[rank], levels); err != nil {
			t.Fatal(err)
		}
	}
	// Node of rank 0 dies; its snapshot must come back via the buddy level.
	mgr.FailNode(nodes[0].ID)
	step, lvls, ok := mgr.BestRestart()
	if !ok || step != 4 {
		t.Fatalf("restart unavailable: %v", ok)
	}
	got, _, err := mgr.SubmitRestore(ioev.At(0), 0, 4, lvls[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, snaps[0]) {
		t.Fatal("SCR round trip corrupted the snapshot")
	}
	// And it must actually restore into a Sim (same 2-rank decomposition —
	// a snapshot is per-rank state, as in SCR).
	_, err = rt.Launch(psmpi.LaunchSpec{
		Nodes: nodes,
		Main: func(p *psmpi.Proc) error {
			sim := NewSim(p, p.World(), cfg)
			if p.Rank() == 0 {
				return sim.Restore(got)
			}
			return sim.Restore(snaps[1])
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRejectsGarbage checks the error paths of the snapshot decoder.
func TestRestoreRejectsGarbage(t *testing.T) {
	rt, sys := newRuntime(1, 0)
	cfg := QuickConfig(1)
	_, err := rt.Launch(psmpi.LaunchSpec{
		Nodes: clusterNodes(sys, 1),
		Main: func(p *psmpi.Proc) error {
			sim := NewSim(p, p.World(), cfg)
			if err := sim.Restore([]byte("not a snapshot")); err == nil {
				t.Error("garbage accepted")
			}
			if err := sim.Restore(nil); err == nil {
				t.Error("empty snapshot accepted")
			}
			// Truncated real snapshot.
			snap := sim.Snapshot()
			if err := sim.Restore(snap[:len(snap)/2]); err == nil {
				t.Error("truncated snapshot accepted")
			}
			// Corrupt length field whose byte size overflows int: must error,
			// not panic allocating (offset 24: first field array's length).
			corrupt := append([]byte(nil), snap...)
			binary.LittleEndian.PutUint64(corrupt[24:], 1<<60)
			if err := sim.Restore(corrupt); err == nil {
				t.Error("huge length field accepted")
			}
			// Ragged species: a Y column one shorter than X. Move would index
			// past its end.
			sp := sim.Pcl.Species[0]
			full := sp.Y
			sp.Y = sp.Y[:len(sp.Y)-1]
			ragged := sim.Snapshot()
			sp.Y = full
			if err := NewSim(p, p.World(), cfg).Restore(ragged); err == nil {
				t.Error("ragged species accepted")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotAllocatesOnce pins that each snapshot encoder sizes its output
// exactly, up front: one allocation per snapshot, whatever the array count.
func TestSnapshotAllocatesOnce(t *testing.T) {
	rt, sys := newRuntime(1, 0)
	cfg := QuickConfig(2)
	_, err := rt.Launch(psmpi.LaunchSpec{
		Nodes: clusterNodes(sys, 1),
		Main: func(p *psmpi.Proc) error {
			comm := p.World()
			sim := NewSim(p, comm, cfg)
			for sim.Step < 2 {
				sim.Advance(p, comm)
			}
			for _, c := range []struct {
				name string
				snap func() []byte
			}{
				{"Sim.Snapshot", sim.Snapshot},
				{"snapParticles", func() []byte { return snapParticles(sim.Pcl, sim.Step) }},
				{"snapGrid", func() []byte { return snapGrid(sim.G, allFields, sim.Step) }},
			} {
				if n := testing.AllocsPerRun(10, func() { c.snap() }); n != 1 {
					t.Errorf("%s: %v allocations per snapshot, want 1", c.name, n)
				}
				if b := c.snap(); len(b) != cap(b) {
					t.Errorf("%s: %d bytes in a %d-byte buffer", c.name, len(b), cap(b))
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzSnapshotRestore feeds arbitrary bytes to the three snapshot decoders
// on a QuickConfig rank. Each must return an error or succeed, never panic;
// a decoder that succeeds must have read a snapshot its encoder writes back
// as a prefix of the input.
func FuzzSnapshotRestore(f *testing.F) {
	cfg := QuickConfig(1)
	// withSim runs fn on a fresh one-rank Sim inside a job.
	withSim := func(t testing.TB, fn func(*Sim)) {
		rt, sys := newRuntime(1, 0)
		if _, err := rt.Launch(psmpi.LaunchSpec{
			Nodes: clusterNodes(sys, 1),
			Main: func(p *psmpi.Proc) error {
				fn(NewSim(p, p.World(), cfg))
				return nil
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	withSim(f, func(sim *Sim) {
		sim.Step = 1
		// lenAt is the offset of each snapshot's first array length field.
		for _, c := range []struct {
			snap  []byte
			lenAt int
		}{
			{sim.Snapshot(), 24},
			{snapParticles(sim.Pcl, sim.Step), 32},
			{snapGrid(sim.G, allFields, sim.Step), 24},
		} {
			f.Add(c.snap)
			f.Add(c.snap[:len(c.snap)/2])
			corrupt := append([]byte(nil), c.snap...)
			binary.LittleEndian.PutUint64(corrupt[c.lenAt:], 1<<60)
			f.Add(corrupt)
		}
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		withSim(t, func(sim *Sim) {
			if sim.Restore(data) == nil && !bytes.HasPrefix(data, sim.Snapshot()) {
				t.Error("Sim.Restore accepted bytes it does not write back")
			}
			if step, err := restoreParticles(sim.Pcl, data); err == nil &&
				!bytes.HasPrefix(data, snapParticles(sim.Pcl, step)) {
				t.Error("restoreParticles accepted bytes it does not write back")
			}
			if step, err := restoreGrid(sim.G, allFields, data); err == nil &&
				!bytes.HasPrefix(data, snapGrid(sim.G, allFields, step)) {
				t.Error("restoreGrid accepted bytes it does not write back")
			}
		})
	})
}
