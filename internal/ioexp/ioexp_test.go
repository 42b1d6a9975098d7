package ioexp

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"clusterbooster/internal/core"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/sion"
)

// TestStrategiesOrderReturnAndDurable runs every strategy on a small job and
// checks the two instants each one reports: the data can be safe no earlier
// than the application regains control, and both happen inside the job.
func TestStrategiesOrderReturnAndDurable(t *testing.T) {
	const nodes, size = 2, 1 << 20
	got := map[Strategy]Outcome{}
	for _, s := range Strategies() {
		out, err := Run(Params{Strategy: s, Nodes: nodes, Size: size})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if out.Return <= 0 {
			t.Errorf("%s: return at %v, want > 0", s, out.Return)
		}
		if out.Durable < out.Return {
			t.Errorf("%s: durable at %v before return at %v", s, out.Durable, out.Return)
		}
		if out.Makespan < out.Durable {
			t.Errorf("%s: makespan %v before durable at %v", s, out.Makespan, out.Durable)
		}
		if out.Bytes != nodes*size {
			t.Errorf("%s: %d bytes, want %d", s, out.Bytes, nodes*size)
		}
		got[s] = out
	}
	// Asynchronous staging hands control back at NVMe speed, write-through
	// only once the global file system holds the data.
	if a, s := got[CacheAsync].Return, got[CacheSync].Return; a >= s {
		t.Errorf("cache-async returned at %v, not before cache-sync at %v", a, s)
	}
}

func TestRunRejectsBadParams(t *testing.T) {
	for _, p := range []Params{
		{Strategy: NAM, Nodes: 0, Size: 1 << 10},
		{Strategy: NAM, Nodes: 2, Size: 0},
		{Strategy: "tape", Nodes: 2, Size: 1 << 10},
	} {
		if _, err := Run(p); err == nil {
			t.Errorf("Run(%+v) succeeded", p)
		}
	}
}

// TestEveryRankStoresItsOwnBytes reads each rank's stored payload back from
// the run's file system. The ranks share one payload buffer, so a write
// path that read or kept the caller's bytes after its Submit call returned
// would show another rank's letter here. The size leaves a partial SION
// block per rank.
func TestEveryRankStoresItsOwnBytes(t *testing.T) {
	const nodes, size = 4, 3<<18 + 5
	for _, s := range []Strategy{SIONGlobal, CacheSync, CacheAsync} {
		sys := core.New(nodes, 0, core.Options{})
		if _, err := run(sys, Params{Strategy: s, Nodes: nodes, Size: size}); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		reader := sys.Machine.Node(0)
		var r *sion.Reader
		if s == SIONGlobal {
			var err error
			if r, _, err = sion.SubmitOpenRead(sys.FS, "/io/all.sion", reader, ioev.At(0)); err != nil {
				t.Fatalf("%s: %v", s, err)
			}
		}
		for rank := 0; rank < nodes; rank++ {
			var got []byte
			var err error
			if r != nil {
				got, _, err = r.SubmitReadTask(ioev.At(0), rank, reader)
			} else {
				got, _, err = sys.FS.SubmitRead(ioev.At(0), fmt.Sprintf("/io/rank%d", rank), 0, size, reader)
			}
			if err != nil {
				t.Fatalf("%s rank %d: %v", s, rank, err)
			}
			if want := bytes.Repeat([]byte{byte('a' + rank)}, size); !bytes.Equal(got, want) {
				t.Errorf("%s rank %d: stored bytes are not %d copies of %q", s, rank, size, want[0])
			}
		}
	}
}

// TestRunAllocatesOnePayload bounds what one cache-async run allocates: the
// content the global file system stores plus one shared payload buffer, with
// one more payload's worth of slack for the system and the job. A payload
// per rank would add Nodes buffers.
func TestRunAllocatesOnePayload(t *testing.T) {
	const nodes, size = 16, 8 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(Params{Strategy: CacheAsync, Nodes: nodes, Size: size}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(nodes*size+2*size); got >= limit {
		t.Errorf("run allocated %d MiB, want < %d MiB", got>>20, limit>>20)
	}
}
