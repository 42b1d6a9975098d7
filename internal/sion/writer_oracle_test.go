package sion

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"clusterbooster/internal/beegfs"
	"clusterbooster/internal/fabric"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/nvme"
	"clusterbooster/internal/vclock"
)

// stagedWriteTask is the writer's original append step, kept verbatim as
// the reference: the whole payload is copied into the task's staging
// buffer, and every full block is copied out of it again before the flush.
func stagedWriteTask(w *Writer, dep ioev.Op, task int, data []byte, node *machine.Node) (ioev.Op, error) {
	if task < 0 || task >= w.ntasks {
		return ioev.Op{}, fmt.Errorf("sion: task %d out of range [0,%d)", task, w.ntasks)
	}
	if w.closed {
		return ioev.Op{}, fmt.Errorf("sion: write to closed container %s", w.path)
	}
	w.buf[task] = append(w.buf[task], data...)
	done := dep
	for int64(len(w.buf[task])) >= w.blockSize {
		blk := append([]byte(nil), w.buf[task][:w.blockSize]...)
		w.buf[task] = w.buf[task][w.blockSize:]
		off := w.nextOff
		w.nextOff += w.blockSize
		w.blocks[task] = append(w.blocks[task], block{Off: off, Used: w.blockSize})
		t, err := w.backend.SubmitWrite(dep, w.path, off, blk, node)
		if err != nil {
			return ioev.Op{}, fmt.Errorf("sion: flush task %d: %w", task, err)
		}
		ioev.AddContainerBytes(w.blockSize)
		done = ioev.After(done, t)
	}
	w.flushed[task] = vclock.Max(w.flushed[task], done.Time())
	return done, nil
}

// backendKinds builds a fresh backend of each kind a container can live
// on, with the node that issues its I/O.
var backendKinds = map[string]func() (Backend, *machine.Node){
	"beegfs": func() (Backend, *machine.Node) {
		sys := machine.New(2, 0)
		return beegfs.New(fabric.New(sys)), sys.Node(0)
	},
	"device": func() (Backend, *machine.Node) {
		return NewDeviceBackend(nvme.New(nvme.P3700())), machine.New(1, 0).Node(0)
	},
}

// rawFile returns a backend file's full content.
func rawFile(t *testing.T, b Backend, node *machine.Node, path string) []byte {
	t.Helper()
	size, err := b.Size(path)
	if err != nil {
		t.Fatal(err)
	}
	raw, _, err := b.SubmitRead(ioev.At(0), path, 0, size, node)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// writeSizes draws one task's write-size sequence relative to the block
// size: sub-block pieces, exact blocks, multi-block runs, and a tail
// followed by the piece that tops it up to a block boundary.
func writeSizes(rng *rand.Rand, blockSize int) []int {
	var sizes []int
	for len(sizes) < 8 {
		switch rng.Intn(5) {
		case 0:
			sizes = append(sizes, rng.Intn(blockSize)) // sub-block, maybe empty
		case 1:
			sizes = append(sizes, blockSize)
		case 2:
			sizes = append(sizes, (2+rng.Intn(3))*blockSize+rng.Intn(blockSize))
		case 3:
			tail := 1 + rng.Intn(blockSize-1)
			sizes = append(sizes, tail, blockSize-tail)
		default:
			tail := 1 + rng.Intn(blockSize-1)
			sizes = append(sizes, tail, blockSize-tail+rng.Intn(2*blockSize))
		}
	}
	return sizes
}

// TestWriteTaskMatchesStagedOracle runs the same interleaved per-task write
// sequences through the staged reference and through SubmitWriteTask, each
// into its own container, and requires byte-identical containers and
// identical completion instants on both backend kinds.
func TestWriteTaskMatchesStagedOracle(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	for kind, newBackend := range backendKinds {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			rng := rand.New(rand.NewSource(seed))
			ntasks := 1 + rng.Intn(4)
			blockSize := []int{2, 17, 256, 4096, 64 << 10}[rng.Intn(5)]
			// Each task keeps its own size sequence; only the interleaving
			// of tasks is shuffled.
			sizes := make([][]int, ntasks)
			var order []int
			for task := range sizes {
				sizes[task] = writeSizes(rng, blockSize)
				for range sizes[task] {
					order = append(order, task)
				}
			}
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

			ref, node := newBackend()
			got, gotNode := newBackend()
			wRef, _, err := SubmitCreate(ref, "/c.sion", ntasks, int64(blockSize), node, ioev.At(0))
			if err != nil {
				t.Fatal(err)
			}
			wGot, _, err := SubmitCreate(got, "/c.sion", ntasks, int64(blockSize), gotNode, ioev.At(0))
			if err != nil {
				t.Fatal(err)
			}
			for i, task := range order {
				data := make([]byte, sizes[task][0])
				sizes[task] = sizes[task][1:]
				rng.Read(data)
				dep := ioev.At(vclock.Time(i) * vclock.Microsecond)
				opRef, err := stagedWriteTask(wRef, dep, task, data, node)
				if err != nil {
					t.Fatal(err)
				}
				opGot, err := wGot.SubmitWriteTask(dep, task, data, gotNode)
				if err != nil {
					t.Fatal(err)
				}
				if opGot != opRef {
					t.Fatalf("%s seed %d write %d: completes at %v, reference %v", kind, seed, i, opGot.Time(), opRef.Time())
				}
			}
			opRef, err := wRef.SubmitClose(ioev.At(0), node)
			if err != nil {
				t.Fatal(err)
			}
			opGot, err := wGot.SubmitClose(ioev.At(0), gotNode)
			if err != nil {
				t.Fatal(err)
			}
			if opGot != opRef {
				t.Fatalf("%s seed %d: close completes at %v, reference %v", kind, seed, opGot.Time(), opRef.Time())
			}
			if !bytes.Equal(rawFile(t, got, gotNode, "/c.sion"), rawFile(t, ref, node, "/c.sion")) {
				t.Fatalf("%s seed %d (%d tasks, block %d): container differs from the staged reference", kind, seed, ntasks, blockSize)
			}
		}
	}
}

// TestWriteTaskDoesNotAliasCallerData overwrites the caller's buffer after
// every SubmitWriteTask — whole blocks flushed straight from it, a buffered tail,
// and the top-up of that tail — and requires the stream to read back as
// originally written.
func TestWriteTaskDoesNotAliasCallerData(t *testing.T) {
	const blockSize = 64
	for kind, newBackend := range backendKinds {
		b, node := newBackend()
		w, _, err := SubmitCreate(b, "/alias.sion", 1, blockSize, node, at0)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for i, n := range []int{2*blockSize + 10, blockSize - 10, 5, blockSize} {
			data := bytes.Repeat([]byte{byte('a' + i)}, n)
			want = append(want, data...)
			if _, err := w.SubmitWriteTask(at0, 0, data, node); err != nil {
				t.Fatal(err)
			}
			for j := range data {
				data[j] = 0xEE
			}
		}
		if _, err := w.SubmitClose(at0, node); err != nil {
			t.Fatal(err)
		}
		r, _, err := SubmitOpenRead(b, "/alias.sion", node, at0)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := r.SubmitReadTask(at0, 0, node)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: stream changed with the caller's buffer after SubmitWriteTask", kind)
		}
	}
}

func TestDeviceBackendRejectsNegativeOffset(t *testing.T) {
	d := NewDeviceBackend(nvme.New(nvme.P3700()))
	d.SubmitCreate(ioev.At(0), "/f", nil)
	if _, err := d.SubmitWrite(ioev.At(0), "/f", -1, []byte("x"), nil); err == nil {
		t.Fatal("write at a negative offset accepted")
	}
}
