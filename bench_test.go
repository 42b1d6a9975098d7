package clusterbooster

// One testing.B benchmark per table and figure of the paper's evaluation,
// plus the ablation benches A1-A6 of DESIGN.md. The interesting output of
// each bench is the *virtual* time and derived ratios, reported through
// b.ReportMetric; wall time measures only the simulator itself.
//
// Benches default to reduced workloads (fewer steps, higher particle scale)
// so `go test -bench=.` completes in minutes. Shapes are step-linear and
// exactly scale-invariant, so ratios match the full Table II workload; run
// the library on XPicTable2Config for full-size numbers.

import (
	"testing"

	"clusterbooster/internal/beegfs"
	"clusterbooster/internal/bench"
	"clusterbooster/internal/core"
	"clusterbooster/internal/fabric"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/msa"
	"clusterbooster/internal/nam"
	"clusterbooster/internal/omps"
	"clusterbooster/internal/psmpi"
	"clusterbooster/internal/sched"
	"clusterbooster/internal/scr"
	"clusterbooster/internal/sion"
	"clusterbooster/internal/vclock"
	"clusterbooster/internal/xpic"
)

// benchConfig is the reduced Table II workload used by the benches.
func benchConfig() xpic.Config {
	cfg := xpic.Table2Config()
	cfg.Steps = 60
	cfg.ParticleScale = 512
	return cfg
}

// BenchmarkTable1Inventory regenerates Table I (hardware configuration).
func BenchmarkTable1Inventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table1()
		if len(rows) < 10 {
			b.Fatal("table I incomplete")
		}
	}
}

// BenchmarkFig3Latency measures the small-message MPI latency curves of
// Fig. 3 (lower panel) through the full psmpi + fabric stack.
func BenchmarkFig3Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].LatencyUs[bench.CNCN], "CN-CN-µs")
		b.ReportMetric(rows[0].LatencyUs[bench.BNBN], "BN-BN-µs")
	}
}

// BenchmarkFig3Bandwidth reports the converged large-message bandwidth of
// Fig. 3 (upper panel).
func BenchmarkFig3Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.BandwidthMBs[bench.CNCN], "CN-CN-MB/s")
		b.ReportMetric(last.BandwidthMBs[bench.BNBN], "BN-BN-MB/s")
	}
}

// BenchmarkFig7SingleNode regenerates the single-node comparison of Fig. 7
// and reports the paper's four headline ratios.
func BenchmarkFig7SingleNode(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FieldAdvantage(), "field-x")
		b.ReportMetric(res.ParticleAdvantage(), "particle-x")
		b.ReportMetric(res.GainVsCluster(), "gain-vs-C")
		b.ReportMetric(res.GainVsBooster(), "gain-vs-B")
	}
}

// BenchmarkFig8Scaling regenerates the strong-scaling study of Fig. 8 and
// reports the 8-node gains and parallel efficiencies.
func BenchmarkFig8Scaling(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig8(cfg, []int{1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Points) - 1
		b.ReportMetric(res.GainVsCluster(last), "gain-vs-C@8")
		b.ReportMetric(res.GainVsBooster(last), "gain-vs-B@8")
		b.ReportMetric(100*res.Efficiency(xpic.SplitCB, last), "eff-C+B-%")
		b.ReportMetric(100*res.Efficiency(xpic.ClusterOnly, last), "eff-C-%")
		b.ReportMetric(100*res.Efficiency(xpic.BoosterOnly, last), "eff-B-%")
	}
}

// BenchmarkAblationOffloadPath (A1) compares the two porting paths of
// §III-A/B: raw spawn+MPI offload vs the OmpSs task layer, for the same
// particle-class kernel.
func BenchmarkAblationOffloadPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		work := machine.Work{Class: machine.KernelParticle, Flops: 3e10}

		// Path 1: raw MPI — spawn and exchange by hand.
		sys1 := core.New(1, 1, core.Options{WithoutStorage: true})
		sys1.Runtime.Register("kernel", func(p *psmpi.Proc) error {
			p.Recv(p.Parent(), 0, 1)
			p.Compute(work)
			p.Send(p.Parent(), 0, 2, nil, 1<<20)
			return nil
		})
		nodes, _ := sys1.ClusterNodes(1)
		res1, err := sys1.Runtime.Launch(psmpi.LaunchSpec{Nodes: nodes, Main: func(p *psmpi.Proc) error {
			inter, err := p.Spawn(p.World(), psmpi.SpawnSpec{Binary: "kernel", Procs: 1, Module: machine.Booster})
			if err != nil {
				return err
			}
			p.Send(inter, 0, 1, nil, 1<<20)
			p.Recv(inter, 0, 2)
			return nil
		}})
		if err != nil {
			b.Fatal(err)
		}

		// Path 2: OmpSs offload through the worker protocol.
		sys2 := core.New(1, 1, core.Options{WithoutStorage: true})
		sys2.Runtime.Register("omps_worker", omps.WorkerMain)
		nodes2, _ := sys2.ClusterNodes(1)
		var makespan2 vclock.Time
		res2, err := sys2.Runtime.Launch(psmpi.LaunchSpec{Nodes: nodes2, Main: func(p *psmpi.Proc) error {
			inter, err := p.Spawn(p.World(), psmpi.SpawnSpec{Binary: "omps_worker", Procs: 1, Module: machine.Booster})
			if err != nil {
				return err
			}
			g := omps.NewGraph(p, 0)
			g.AddOffload("kernel", nil, work, 1<<20, 1<<20, nil)
			r, err := g.RunWithOffload(inter, 0)
			if err != nil {
				return err
			}
			makespan2 = r.Makespan
			omps.StopWorker(p, inter, 0)
			return nil
		}})
		if err != nil {
			b.Fatal(err)
		}
		_ = res2
		b.ReportMetric(res1.Makespan.Seconds()*1e3, "rawMPI-ms")
		b.ReportMetric(makespan2.Seconds()*1e3, "omps-ms")
	}
}

// BenchmarkAblationCheckpointTargets (A2) compares the checkpoint levels:
// NVMe-local vs buddy vs global BeeGFS vs network-attached memory (ref [6]).
func BenchmarkAblationCheckpointTargets(b *testing.B) {
	const ckptBytes = 64 << 20
	for i := 0; i < b.N; i++ {
		sys := core.Prototype()
		nodes, _ := sys.ClusterNodes(4)
		data := make([]byte, ckptBytes)

		report := func(name string, cfg scr.Config, levels []scr.Level) {
			mgr, err := scr.New(cfg, sys.Network, sys.FS, nodes, sys.NVMe)
			if err != nil {
				b.Fatal(err)
			}
			mgr.BeginCheckpoint(1)
			var done vclock.Time
			for rank := 0; rank < 4; rank++ {
				a := ioev.Detach(nil, 0)
				if err := mgr.Checkpoint(a, rank, 1, data, levels); err != nil {
					b.Fatal(err)
				}
				done = vclock.Max(done, a.Now())
			}
			a := ioev.Detach(nil, done)
			if err := mgr.CompleteGlobal(a, 1, 0); err == nil && a.Now() > done {
				done = a.Now()
			}
			b.ReportMetric(done.Seconds()*1e3, name)
		}
		report("local-ms", scr.Config{}, []scr.Level{scr.LevelLocal})
		report("buddy-ms", scr.Config{BuddyEvery: 1}, []scr.Level{scr.LevelBuddy})
		report("global-ms", scr.Config{GlobalEvery: 1}, []scr.Level{scr.LevelGlobal})

		// NAM target: RDMA put of each rank's state, no remote CPU.
		dev := nam.New(sys.Network, "ckpt-nam", 2<<30)
		var namDone vclock.Time
		for rank := 0; rank < 4; rank++ {
			region, err := dev.Alloc(nodes[rank].Name(), ckptBytes)
			if err != nil {
				b.Fatal(err)
			}
			op, err := region.SubmitWrite(ioev.At(0), nodes[rank], ckptBytes)
			if err != nil {
				b.Fatal(err)
			}
			namDone = vclock.Max(namDone, op.Time())
		}
		b.ReportMetric(namDone.Seconds()*1e3, "nam-ms")
	}
}

// BenchmarkAblationCacheDomain (A3) compares BeeOND cache modes for an I/O
// burst: async cache vs sync cache vs writing the global FS directly.
func BenchmarkAblationCacheDomain(b *testing.B) {
	const burst = 128 << 20
	for i := 0; i < b.N; i++ {
		data := make([]byte, burst)

		sysA := core.Prototype()
		nodesA, _ := sysA.ClusterNodes(1)
		ca := beegfs.NewCache(sysA.FS, beegfs.CacheAsync, sysA.NVMe)
		aa := ioev.Detach(nodesA[0], 0)
		if err := ca.Write(aa, "/b", data); err != nil {
			b.Fatal(err)
		}
		tAsync := aa.Now()

		sysS := core.Prototype()
		nodesS, _ := sysS.ClusterNodes(1)
		cs := beegfs.NewCache(sysS.FS, beegfs.CacheSync, sysS.NVMe)
		as := ioev.Detach(nodesS[0], 0)
		if err := cs.Write(as, "/b", data); err != nil {
			b.Fatal(err)
		}
		tSync := as.Now()

		sysN := core.Prototype()
		nodesN, _ := sysN.ClusterNodes(1)
		ad := ioev.Detach(nodesN[0], 0)
		sysN.FS.Create(ad, "/b")
		if err := sysN.FS.Write(ad, "/b", 0, data); err != nil {
			b.Fatal(err)
		}
		tDirect := ad.Now()
		b.ReportMetric(tAsync.Seconds()*1e3, "async-ms")
		b.ReportMetric(tSync.Seconds()*1e3, "sync-ms")
		b.ReportMetric(tDirect.Seconds()*1e3, "direct-ms")
	}
}

// BenchmarkAblationSIONFanIn (A4) compares SIONlib's one-container
// concentration with naive file-per-task I/O at growing task counts.
func BenchmarkAblationSIONFanIn(b *testing.B) {
	const payload = 1 << 20
	for i := 0; i < b.N; i++ {
		for _, ntasks := range []int{4, 16, 64} {
			data := make([]byte, payload)

			sys1 := core.Prototype()
			n1, _ := sys1.ClusterNodes(1)
			w, _, err := sion.SubmitCreate(sys1.FS, "/c.sion", ntasks, 256<<10, n1[0], ioev.At(0))
			if err != nil {
				b.Fatal(err)
			}
			var tSion vclock.Time
			for task := 0; task < ntasks; task++ {
				done, err := w.SubmitWriteTask(ioev.At(0), task, data, n1[0])
				if err != nil {
					b.Fatal(err)
				}
				tSion = vclock.Max(tSion, done.Time())
			}
			closed, err := w.SubmitClose(ioev.At(tSion), n1[0])
			if err != nil {
				b.Fatal(err)
			}
			tSion = closed.Time()

			sys2 := core.Prototype()
			n2, _ := sys2.ClusterNodes(1)
			var tFiles vclock.Time
			for task := 0; task < ntasks; task++ {
				path := "/task-" + string(rune('a'+task%26)) + string(rune('0'+task/26))
				created := sys2.FS.SubmitCreate(ioev.At(0), path, n2[0])
				done, err := sys2.FS.SubmitWrite(created, path, 0, data, n2[0])
				if err != nil {
					b.Fatal(err)
				}
				tFiles = vclock.Max(tFiles, done.Time())
			}
			if ntasks == 64 {
				b.ReportMetric(tSion.Seconds()*1e3, "sion64-ms")
				b.ReportMetric(tFiles.Seconds()*1e3, "files64-ms")
			}
		}
	}
}

// BenchmarkAblationOverlap (A5) quantifies the comm/compute overlap of
// Listings 2-4: C+B mode with and without the non-blocking overlap.
func BenchmarkAblationOverlap(b *testing.B) {
	cfg := benchConfig()
	cfg.DiagEvery = 1 // maximise the overlappable auxiliary work
	for i := 0; i < b.N; i++ {
		sys1 := core.New(1, 1, core.Options{WithoutStorage: true})
		with, err := sys1.RunXPicSplit(1, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfgNo := cfg
		cfgNo.NoOverlap = true
		sys2 := core.New(1, 1, core.Options{WithoutStorage: true})
		without, err := sys2.RunXPicSplit(1, cfgNo)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(with.Makespan.Seconds(), "overlap-s")
		b.ReportMetric(without.Makespan.Seconds(), "blocking-s")
	}
}

// BenchmarkAblationRendezvous (A6) sweeps the eager/rendezvous threshold and
// reports mid-size message bandwidth sensitivity (the protocol-switch bump of
// Fig. 3).
func BenchmarkAblationRendezvous(b *testing.B) {
	const size = 32 << 10
	for i := 0; i < b.N; i++ {
		for _, thr := range []int{4 << 10, 16 << 10, 64 << 10} {
			sys := machine.New(2, 0)
			net := fabric.New(sys, fabric.Config{EagerThreshold: thr})
			bw := net.Bandwidth(sys.Node(0), sys.Node(1), size)
			switch thr {
			case 4 << 10:
				b.ReportMetric(bw/1e6, "thr4K-MB/s")
			case 16 << 10:
				b.ReportMetric(bw/1e6, "thr16K-MB/s")
			case 64 << 10:
				b.ReportMetric(bw/1e6, "thr64K-MB/s")
			}
		}
	}
}

// BenchmarkAblationModularVsAccelerated (A7) quantifies §II-A's resource
// argument: a complementary job mix on independent Cluster/Booster pools vs
// the same mix on an accelerated cluster with statically paired nodes.
func BenchmarkAblationModularVsAccelerated(b *testing.B) {
	mix := []sched.Job{
		{ID: 1, Cluster: 8, Duration: 10 * vclock.Second},
		{ID: 2, Booster: 8, Duration: 10 * vclock.Second},
		{ID: 3, Cluster: 8, Duration: 10 * vclock.Second},
		{ID: 4, Booster: 8, Duration: 10 * vclock.Second},
		{ID: 5, Cluster: 4, Booster: 4, Duration: 5 * vclock.Second},
	}
	for i := 0; i < b.N; i++ {
		m := sched.NewManager(machine.New(8, 8))
		mod, err := m.SimulateQueue(mix, sched.Backfill)
		if err != nil {
			b.Fatal(err)
		}
		acc, err := sched.SimulateAcceleratedQueue(mix, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mod.Makespan.Seconds(), "modular-s")
		b.ReportMetric(acc.Makespan.Seconds(), "accelerated-s")
	}
}

// BenchmarkAblationCheckpointInterval (A8) sweeps the checkpoint interval of
// the SCR failure simulation around the Young/Daly optimum (§III-D).
func BenchmarkAblationCheckpointInterval(b *testing.B) {
	base := scr.SimParams{
		Work:           20000 * vclock.Second,
		CheckpointCost: 5 * vclock.Second,
		RestartCost:    20 * vclock.Second,
		MTBF:           1000 * vclock.Second,
		Seed:           1,
	}
	daly := scr.OptimalInterval(base.CheckpointCost, base.MTBF)
	for i := 0; i < b.N; i++ {
		_, outs, err := scr.SweepIntervals(base, []vclock.Time{daly / 5, daly, 5 * daly})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(outs[daly/5].Overhead*100, "over-ckpt-%")
		b.ReportMetric(outs[daly].Overhead*100, "daly-%")
		b.ReportMetric(outs[5*daly].Overhead*100, "under-ckpt-%")
	}
}

// BenchmarkMSAWorkflow exercises the Modular Supercomputing generalisation
// (§VI): an HPC + HPDA pipeline over three modules.
func BenchmarkMSAWorkflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := msa.DEEPEST()
		res, err := sys.RunWorkflow([]msa.Stage{
			{Name: "simulate", Module: "Booster", Procs: 4,
				Work: machine.Work{Class: machine.KernelParticle, Flops: 2e9}},
			{Name: "analyse", Module: "DAM", Procs: 2,
				Work: machine.Work{Class: machine.KernelStream, Bytes: 128 << 20}, InBytes: 4 << 20},
		}, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Makespan.Seconds(), "makespan-s")
	}
}
