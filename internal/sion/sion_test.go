package sion

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"clusterbooster/internal/beegfs"
	"clusterbooster/internal/fabric"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/nvme"
	"clusterbooster/internal/vclock"
)

func testBackend() (Backend, *machine.System) {
	sys := machine.New(4, 4)
	net := fabric.New(sys)
	return beegfs.New(net), sys
}

// at0 is the dependency of every operation whose timing a test ignores.
var at0 = ioev.At(0)

func TestRoundTripSingleTask(t *testing.T) {
	b, sys := testBackend()
	n := sys.Node(0)
	w, op, err := SubmitCreate(b, "/c.sion", 1, 4096, n, at0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("moment data "), 100)
	if op, err = w.SubmitWriteTask(op, 0, payload, n); err != nil {
		t.Fatal(err)
	}
	if op, err = w.SubmitClose(op, n); err != nil {
		t.Fatal(err)
	}
	r, op, err := SubmitOpenRead(b, "/c.sion", n, op)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := r.SubmitReadTask(op, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip differs: %d vs %d bytes", len(got), len(payload))
	}
}

func TestRoundTripManyTasks(t *testing.T) {
	// The concentration property: 16 task streams, one physical file.
	b, sys := testBackend()
	n := sys.Node(0)
	const ntasks = 16
	w, _, err := SubmitCreate(b, "/many.sion", ntasks, 1024, n, at0)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, ntasks)
	for task := 0; task < ntasks; task++ {
		payloads[task] = bytes.Repeat([]byte{byte('A' + task)}, 300+200*task)
		node := sys.Node(task % len(sys.Nodes()))
		if _, err := w.SubmitWriteTask(at0, task, payloads[task], node); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.SubmitClose(at0, n); err != nil {
		t.Fatal(err)
	}
	r, _, err := SubmitOpenRead(b, "/many.sion", n, at0)
	if err != nil {
		t.Fatal(err)
	}
	if r.ntasks != ntasks {
		t.Fatalf("ntasks = %d", r.ntasks)
	}
	for task := 0; task < ntasks; task++ {
		got, _, err := r.SubmitReadTask(at0, task, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payloads[task]) {
			t.Fatalf("task %d data corrupted", task)
		}
		if r.TaskSize(task) != int64(len(payloads[task])) {
			t.Fatalf("task %d size = %d", task, r.TaskSize(task))
		}
	}
}

func TestMultiBlockStream(t *testing.T) {
	// A stream spanning several blocks (block chaining).
	b, sys := testBackend()
	n := sys.Node(0)
	w, _, _ := SubmitCreate(b, "/blk.sion", 2, 128, n, at0)
	long := bytes.Repeat([]byte("0123456789abcdef"), 100) // 1600 B over 128 B blocks
	for i := 0; i < 4; i++ {
		if _, err := w.SubmitWriteTask(at0, 1, long[i*400:(i+1)*400], n); err != nil {
			t.Fatal(err)
		}
	}
	w.SubmitWriteTask(at0, 0, []byte("tiny"), n)
	if _, err := w.SubmitClose(at0, n); err != nil {
		t.Fatal(err)
	}
	r, _, err := SubmitOpenRead(b, "/blk.sion", n, at0)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := r.SubmitReadTask(at0, 1, n)
	if !bytes.Equal(got, long) {
		t.Fatal("chained blocks corrupted")
	}
	got0, _, _ := r.SubmitReadTask(at0, 0, n)
	if string(got0) != "tiny" {
		t.Fatalf("task 0 = %q", got0)
	}
}

func TestEmptyTasksAllowed(t *testing.T) {
	b, sys := testBackend()
	n := sys.Node(0)
	w, _, _ := SubmitCreate(b, "/empty.sion", 4, 512, n, at0)
	w.SubmitWriteTask(at0, 2, []byte("only me"), n)
	if _, err := w.SubmitClose(at0, n); err != nil {
		t.Fatal(err)
	}
	r, _, err := SubmitOpenRead(b, "/empty.sion", n, at0)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range []int{0, 1, 3} {
		if r.TaskSize(task) != 0 {
			t.Errorf("task %d not empty", task)
		}
		got, _, err := r.SubmitReadTask(at0, task, n)
		if err != nil || len(got) != 0 {
			t.Errorf("task %d read = %v, %v", task, got, err)
		}
	}
}

func TestWriteAfterCloseRejected(t *testing.T) {
	b, sys := testBackend()
	n := sys.Node(0)
	w, _, _ := SubmitCreate(b, "/x.sion", 1, 512, n, at0)
	w.SubmitClose(at0, n)
	if _, err := w.SubmitWriteTask(at0, 0, []byte("late"), n); err == nil {
		t.Fatal("write after close succeeded")
	}
	if _, err := w.SubmitClose(at0, n); err == nil {
		t.Fatal("double close succeeded")
	}
}

func TestInvalidGeometry(t *testing.T) {
	b, sys := testBackend()
	n := sys.Node(0)
	if _, _, err := SubmitCreate(b, "/bad", 0, 512, n, at0); err == nil {
		t.Fatal("0 tasks accepted")
	}
	if _, _, err := SubmitCreate(b, "/bad", 1, 0, n, at0); err == nil {
		t.Fatal("0 block size accepted")
	}
}

func TestOpenReadRejectsGarbage(t *testing.T) {
	b, sys := testBackend()
	n := sys.Node(0)
	created := b.SubmitCreate(at0, "/garbage", n)
	if _, err := b.SubmitWrite(created, "/garbage", 0, bytes.Repeat([]byte{7}, 128), n); err != nil {
		t.Fatal(err)
	}
	if _, _, err := SubmitOpenRead(b, "/garbage", n, at0); err == nil {
		t.Fatal("garbage accepted as container")
	}
}

func TestTaskOutOfRange(t *testing.T) {
	b, sys := testBackend()
	n := sys.Node(0)
	w, _, _ := SubmitCreate(b, "/r.sion", 2, 512, n, at0)
	if _, err := w.SubmitWriteTask(at0, 2, []byte("x"), n); err == nil {
		t.Fatal("out-of-range task accepted")
	}
	w.SubmitClose(at0, n)
	r, _, _ := SubmitOpenRead(b, "/r.sion", n, at0)
	if _, _, err := r.SubmitReadTask(at0, 5, n); err == nil {
		t.Fatal("out-of-range read accepted")
	}
}

func TestDeviceBackendRoundTrip(t *testing.T) {
	sys := machine.New(1, 0)
	n := sys.Node(0)
	dev := nvme.New(nvme.P3700())
	d := NewDeviceBackend(dev)
	w, _, err := SubmitCreate(d, "/local.sion", 2, 256, n, at0)
	if err != nil {
		t.Fatal(err)
	}
	w.SubmitWriteTask(at0, 0, []byte("local checkpoint"), n)
	w.SubmitWriteTask(at0, 1, bytes.Repeat([]byte("B"), 700), n)
	if _, err := w.SubmitClose(at0, n); err != nil {
		t.Fatal(err)
	}
	r, _, err := SubmitOpenRead(d, "/local.sion", n, at0)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := r.SubmitReadTask(at0, 0, n)
	if string(got) != "local checkpoint" {
		t.Fatalf("got %q", got)
	}
	size, _ := d.Size("/local.sion")
	if _, err := dev.SubmitRead(at0, "file:/local.sion", size); err != nil || size == 0 {
		t.Errorf("device backend did not account capacity: %d bytes (%v)", size, err)
	}
}

// TestDeviceBackendReadPricesRequestedBytes reads a task stream back from a
// node-local container block by block: the device time must be that of the
// stream's bytes plus one command per block, not a whole-file read per
// block, which made the read quadratic in the container size.
func TestDeviceBackendReadPricesRequestedBytes(t *testing.T) {
	const size, blockSize = 4 << 20, 64 << 10
	spec := nvme.P3700()
	d := NewDeviceBackend(nvme.New(spec))
	w, _, err := SubmitCreate(d, "/ckpt.sion", 1, blockSize, nil, at0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.SubmitWriteTask(at0, 0, make([]byte, size), nil); err != nil {
		t.Fatal(err)
	}
	sealed, err := w.SubmitClose(at0, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, opened, err := SubmitOpenRead(d, "/ckpt.sion", nil, sealed)
	if err != nil {
		t.Fatal(err)
	}
	_, read, err := r.SubmitReadTask(opened, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	blocks := size / blockSize
	want := vclock.Time(blocks)*spec.CmdLatency + vclock.Time(size/(spec.ReadGBs*1e9))
	if got := read.Time() - opened.Time(); math.Abs((got - want).Seconds()) > 1e-6 {
		t.Errorf("reading a %d MiB stream in %d blocks took %v, want %v", size>>20, blocks, got, want)
	}
}

func TestBuddyCopy(t *testing.T) {
	sys := machine.New(2, 0)
	net := fabric.New(sys)
	buddyDev := nvme.New(nvme.P3700())
	data := bytes.Repeat([]byte("ckpt"), 1<<20)
	start := ioev.At(vclock.Second)
	op, err := SubmitBuddy(net, sys.Node(0), sys.Node(1), buddyDev, "ckpt/rank0/step5", int64(len(data)), start)
	if err != nil {
		t.Fatal(err)
	}
	if op.Time() <= vclock.Second {
		t.Error("buddy copy free of charge")
	}
	if _, err := buddyDev.SubmitRead(at0, "ckpt/rank0/step5", int64(len(data))); err != nil {
		t.Errorf("buddy device does not hold the %d-byte copy: %v", len(data), err)
	}
	if _, err := buddyDev.SubmitRead(at0, "ckpt/rank0/step5", int64(len(data))+1); err == nil {
		t.Error("buddy blob larger than the copy")
	}
	if _, err := SubmitBuddy(net, sys.Node(0), sys.Node(0), buddyDev, "x", int64(len(data)), start); err == nil {
		t.Error("self-buddy accepted")
	}
}

func TestConcentrationTimingBeatsFilePerTask(t *testing.T) {
	// The reason SIONlib exists: N tasks writing one container cost far
	// fewer metadata operations than N files. Compare virtual times. Both
	// sides submit everything at instant 0 so queueing, not actor clocks,
	// sets the finish line.
	const ntasks = 32
	payload := bytes.Repeat([]byte("x"), 4096)

	bc, sysC := testBackend()
	n := sysC.Node(0)
	w, _, _ := SubmitCreate(bc, "/one.sion", ntasks, 4096, n, ioev.At(0))
	var tSion vclock.Time
	for task := 0; task < ntasks; task++ {
		done, err := w.SubmitWriteTask(ioev.At(0), task, payload, n)
		if err != nil {
			t.Fatal(err)
		}
		tSion = vclock.Max(tSion, done.Time())
	}
	closed, _ := w.SubmitClose(ioev.At(tSion), n)
	tSion = closed.Time()

	bp, sysP := testBackend()
	np := sysP.Node(0)
	fs := bp.(*beegfs.FS)
	var tFiles vclock.Time
	for task := 0; task < ntasks; task++ {
		path := fmt.Sprintf("/task-%d.out", task)
		created := fs.SubmitCreate(ioev.At(0), path, np)
		wdone, err := fs.SubmitWrite(created, path, 0, payload, np)
		if err != nil {
			t.Fatal(err)
		}
		tFiles = vclock.Max(tFiles, wdone.Time())
	}
	if tSion >= tFiles {
		t.Errorf("container (%v) not faster than file-per-task (%v)", tSion, tFiles)
	}
}

func TestQuickContainerRoundTrip(t *testing.T) {
	// Property: arbitrary per-task payloads survive the container format.
	b, sys := testBackend()
	n := sys.Node(0)
	counter := 0
	f := func(x, y, z []byte) bool {
		counter++
		path := fmt.Sprintf("/q%d.sion", counter)
		w, _, err := SubmitCreate(b, path, 3, 64, n, at0)
		if err != nil {
			return false
		}
		ins := [][]byte{x, y, z}
		for task, data := range ins {
			if _, err := w.SubmitWriteTask(at0, task, data, n); err != nil {
				return false
			}
		}
		if _, err := w.SubmitClose(at0, n); err != nil {
			return false
		}
		r, _, err := SubmitOpenRead(b, path, n, at0)
		if err != nil {
			return false
		}
		for task, want := range ins {
			got, _, err := r.SubmitReadTask(at0, task, n)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
