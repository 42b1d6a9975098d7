package exp

// Hot-path benchmarks for the execution kernel: how fast the host can turn
// the simulated MPI traffic of the paper's workloads. These are wall-clock
// benchmarks of the simulator itself (virtual-time results are asserted
// elsewhere); run them before and after kernel changes:
//
//	go test ./internal/exp -run xxx -bench Kernel -benchmem
//
// CI executes them with -benchtime=1x as a smoke test so they cannot rot.

import (
	"fmt"
	"math/rand"
	"testing"

	"clusterbooster/internal/core"
	"clusterbooster/internal/fabric"
	"clusterbooster/internal/ioexp"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/psmpi"
	"clusterbooster/internal/vclock"
	"clusterbooster/internal/xpic"
)

// benchRuntime boots a runtime over c cluster and b booster nodes.
func benchRuntime(c, b int) (*psmpi.Runtime, *machine.System) {
	sys := machine.New(c, b)
	return psmpi.NewRuntime(sys, fabric.New(sys), psmpi.Config{}), sys
}

// benchChunk is how many iterations one launched job performs. Chunking b.N
// into fresh jobs on fresh systems keeps the virtual link history at a
// realistic per-job size (a benchmark that ran millions of messages over one
// fabric would mostly measure the ever-growing reservation history, which no
// real sweep scenario has) and includes the job boot cost sweeps actually
// pay.
const benchChunk = 512

// benchPingPong bounces one message of the given size back and forth between
// two cluster ranks, b.N times across chunked jobs.
func benchPingPong(b *testing.B, bytes int) {
	payload := make([]float64, bytes/8)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += benchChunk {
		iters := min(benchChunk, b.N-done)
		rt, sys := benchRuntime(2, 0)
		nodes := sys.Module(machine.Cluster)[:2]
		_, err := rt.Launch(psmpi.LaunchSpec{Nodes: nodes, Main: func(p *psmpi.Proc) error {
			w := p.World()
			buf := make([]float64, len(payload))
			// Each hop carries a copy of payload from the job's pool, which
			// the receiver copies out and returns: MPI value semantics at
			// no steady-state allocation.
			send := func(dst, tag int) {
				out := p.GetF64(len(payload))
				copy(out, payload)
				p.Send(w, dst, tag, out, bytes)
			}
			recv := func(src, tag int) {
				in := p.Recv(w, src, tag)
				copy(buf, in)
				p.PutF64(in)
			}
			for i := 0; i < iters; i++ {
				if p.Rank() == 0 {
					send(1, 0)
					recv(1, 1)
				} else {
					recv(0, 0)
					send(0, 1)
				}
			}
			return nil
		}})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelPingPongEager measures the eager-protocol p2p hot path
// (1 KiB, below the 16 KiB threshold).
func BenchmarkKernelPingPongEager(b *testing.B) { benchPingPong(b, 1<<10) }

// BenchmarkKernelPingPongRendezvous measures the rendezvous-protocol p2p hot
// path (256 KiB: RTS/CTS handshake plus blocking-sender completion).
func BenchmarkKernelPingPongRendezvous(b *testing.B) { benchPingPong(b, 256<<10) }

// benchAllreduce performs b.N 8-element allreduces over the given rank
// count, across chunked jobs.
func benchAllreduce(b *testing.B, ranks int) {
	chunk := benchChunk
	if ranks >= 256 {
		chunk = 64 // large jobs: keep per-job virtual history realistic
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += chunk {
		iters := min(chunk, b.N-done)
		rt, sys := benchRuntime(ranks, 0)
		nodes := sys.Module(machine.Cluster)[:ranks]
		_, err := rt.Launch(psmpi.LaunchSpec{Nodes: nodes, Main: func(p *psmpi.Proc) error {
			w := p.World()
			buf := make([]float64, 8)
			for i := 0; i < iters; i++ {
				buf[0] = float64(p.Rank())
				p.AllreduceF64(w, buf, psmpi.OpSum)
			}
			return nil
		}})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelAllreduce8 exercises the collective tree at prototype scale.
func BenchmarkKernelAllreduce8(b *testing.B) { benchAllreduce(b, 8) }

// BenchmarkKernelAllreduce64 exercises the collective tree at 8x the
// prototype's Booster, where host synchronization starts to dominate.
func BenchmarkKernelAllreduce64(b *testing.B) { benchAllreduce(b, 64) }

// BenchmarkKernelAllreduce512 exercises the collective tree far past the
// prototype — the scale the fig8-scale experiments run at, where the
// goroutine-per-rank rendezvous implementation paid for host synchronisation
// and allocation on every hop.
func BenchmarkKernelAllreduce512(b *testing.B) { benchAllreduce(b, 512) }

// BenchmarkKernelFig7Split runs the Fig. 7 C+B pipeline (spawn, split
// solvers, Issend/Irecv exchange, halo traffic, collective diagnostics) on a
// communication-heavy workload: a small grid over many steps, so the
// wall-clock weights the pipeline machinery — the execution kernel's hot
// path — alongside the physics kernels.
func BenchmarkKernelFig7Split(b *testing.B) {
	cfg := xpic.QuickConfig(200)
	cfg.ParticleScale = 32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := core.New(1, 1, core.Options{WithoutStorage: true})
		if _, err := sys.RunXPic(xpic.SplitCB, 1, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelFig8SplitN8 runs the paper sweep's heaviest scenario — the
// ci-quick Fig. 8 C+B point at n=8 (16 ranks: spawn, halo and migration
// traffic, CG collectives, interface exchange) — end to end.
func BenchmarkKernelFig8SplitN8(b *testing.B) {
	cfg := xpic.Table2Config()
	cfg.Steps = 60
	cfg.ParticleScale = 512
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := core.New(8, 8, core.Options{WithoutStorage: true})
		if _, err := sys.RunXPic(xpic.SplitCB, 8, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelFigIO runs the fig-io family's heaviest I/O strategies end
// to end — the SIONlib global container and the async BeeOND cache at the
// n=16, 8 MiB grid point — exercising the whole migrated I/O-on-kernel
// stack: device queues, striped FS writes, cache flush callbacks, barriers.
func BenchmarkKernelFigIO(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range []ioexp.Strategy{ioexp.SIONGlobal, ioexp.CacheAsync} {
			if _, err := ioexp.Run(ioexp.Params{Strategy: s, Nodes: 16, Size: 8 << 20}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkKernelQueueClustered measures the event queue alone on the
// population that degraded the calendar queue it replaced: n ranks whose
// wakeups fall microseconds apart, one compute step ahead, mixed with rare
// timers spread over tens of milliseconds. One op is one hold step — pop the
// earliest entry, push a successor one delay later — on a queue held at n
// live entries, so ns/op grows with log n on a heap, and with n on a
// structure whose pushes degrade to linear scans (a calendar queue whose
// bucket width a far timer inflated).
func BenchmarkKernelQueueClustered(b *testing.B) {
	for _, n := range []int{1 << 10, 32 << 10} {
		b.Run(fmt.Sprintf("%dk", n>>10), func(b *testing.B) { benchQueueClustered(b, n) })
	}
}

func benchQueueClustered(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	delays := make([]vclock.Time, 4096)
	for i := range delays {
		if i%64 == 0 {
			delays[i] = vclock.Time(rng.Float64()) * 50 * vclock.Millisecond
		} else {
			delays[i] = 100*vclock.Microsecond + vclock.Time(rng.Intn(5000))*vclock.Nanosecond
		}
	}
	var q vclock.Queue[int32]
	for i := 0; i < n; i++ {
		q.Push(delays[i%len(delays)], int32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, _ := q.Pop()
		q.Push(e.At+delays[i%len(delays)], e.Payload)
	}
}
