package sion

import (
	"bytes"
	"fmt"
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

func TestRoundTripSingleTask(t *testing.T) {
	b, sys := testBackend()
	a := ioev.Detach(sys.Node(0), 0)
	w, err := Create(a, b, "/c.sion", 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("moment data "), 100)
	if err := w.WriteTask(a, 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(a); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRead(a, b, "/c.sion")
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadTask(a, 0)
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
	a := ioev.Detach(sys.Node(0), 0)
	const ntasks = 16
	w, err := Create(a, b, "/many.sion", ntasks, 1024)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, ntasks)
	for task := 0; task < ntasks; task++ {
		payloads[task] = bytes.Repeat([]byte{byte('A' + task)}, 300+200*task)
		node := sys.Node(task % len(sys.Nodes()))
		actor := ioev.Detach(node, 0)
		if err := w.WriteTask(actor, task, payloads[task]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(a); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRead(a, b, "/many.sion")
	if err != nil {
		t.Fatal(err)
	}
	if r.ntasks != ntasks {
		t.Fatalf("ntasks = %d", r.ntasks)
	}
	for task := 0; task < ntasks; task++ {
		got, err := r.ReadTask(a, task)
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
	a := ioev.Detach(sys.Node(0), 0)
	w, _ := Create(a, b, "/blk.sion", 2, 128)
	long := bytes.Repeat([]byte("0123456789abcdef"), 100) // 1600 B over 128 B blocks
	for i := 0; i < 4; i++ {
		if err := w.WriteTask(a, 1, long[i*400:(i+1)*400]); err != nil {
			t.Fatal(err)
		}
	}
	w.WriteTask(a, 0, []byte("tiny"))
	if err := w.Close(a); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRead(a, b, "/blk.sion")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := r.ReadTask(a, 1)
	if !bytes.Equal(got, long) {
		t.Fatal("chained blocks corrupted")
	}
	got0, _ := r.ReadTask(a, 0)
	if string(got0) != "tiny" {
		t.Fatalf("task 0 = %q", got0)
	}
}

func TestEmptyTasksAllowed(t *testing.T) {
	b, sys := testBackend()
	a := ioev.Detach(sys.Node(0), 0)
	w, _ := Create(a, b, "/empty.sion", 4, 512)
	w.WriteTask(a, 2, []byte("only me"))
	if err := w.Close(a); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRead(a, b, "/empty.sion")
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range []int{0, 1, 3} {
		if r.TaskSize(task) != 0 {
			t.Errorf("task %d not empty", task)
		}
		got, err := r.ReadTask(a, task)
		if err != nil || len(got) != 0 {
			t.Errorf("task %d read = %v, %v", task, got, err)
		}
	}
}

func TestWriteAfterCloseRejected(t *testing.T) {
	b, sys := testBackend()
	a := ioev.Detach(sys.Node(0), 0)
	w, _ := Create(a, b, "/x.sion", 1, 512)
	w.Close(a)
	if err := w.WriteTask(a, 0, []byte("late")); err == nil {
		t.Fatal("write after close succeeded")
	}
	if err := w.Close(a); err == nil {
		t.Fatal("double close succeeded")
	}
}

func TestInvalidGeometry(t *testing.T) {
	b, sys := testBackend()
	a := ioev.Detach(sys.Node(0), 0)
	if _, err := Create(a, b, "/bad", 0, 512); err == nil {
		t.Fatal("0 tasks accepted")
	}
	if _, err := Create(a, b, "/bad", 1, 0); err == nil {
		t.Fatal("0 block size accepted")
	}
}

func TestOpenReadRejectsGarbage(t *testing.T) {
	b, sys := testBackend()
	a := ioev.Detach(sys.Node(0), 0)
	created := b.SubmitCreate(ioev.Start(a), "/garbage", a.Node())
	if _, err := b.SubmitWrite(created, "/garbage", 0, bytes.Repeat([]byte{7}, 128), a.Node()); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRead(a, b, "/garbage"); err == nil {
		t.Fatal("garbage accepted as container")
	}
}

func TestTaskOutOfRange(t *testing.T) {
	b, sys := testBackend()
	a := ioev.Detach(sys.Node(0), 0)
	w, _ := Create(a, b, "/r.sion", 2, 512)
	if err := w.WriteTask(a, 2, []byte("x")); err == nil {
		t.Fatal("out-of-range task accepted")
	}
	w.Close(a)
	r, _ := OpenRead(a, b, "/r.sion")
	if _, err := r.ReadTask(a, 5); err == nil {
		t.Fatal("out-of-range read accepted")
	}
}

func TestDeviceBackendRoundTrip(t *testing.T) {
	sys := machine.New(1, 0)
	dev := nvme.New(nvme.P3700())
	d := NewDeviceBackend(dev)
	a := ioev.Detach(sys.Node(0), 0)
	w, err := Create(a, d, "/local.sion", 2, 256)
	if err != nil {
		t.Fatal(err)
	}
	w.WriteTask(a, 0, []byte("local checkpoint"))
	w.WriteTask(a, 1, bytes.Repeat([]byte("B"), 700))
	if err := w.Close(a); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRead(a, d, "/local.sion")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := r.ReadTask(a, 0)
	if string(got) != "local checkpoint" {
		t.Fatalf("got %q", got)
	}
	if size, _, err := dev.SubmitGet(ioev.At(0), "file:/local.sion"); err != nil || size == 0 {
		t.Errorf("device backend did not account capacity: %d bytes (%v)", size, err)
	}
}

func TestBuddyCopy(t *testing.T) {
	sys := machine.New(2, 0)
	net := fabric.New(sys)
	buddyDev := nvme.New(nvme.P3700())
	data := bytes.Repeat([]byte("ckpt"), 1<<20)
	a := ioev.Detach(sys.Node(0), vclock.Second)
	if err := Buddy(a, net, sys.Node(1), buddyDev, "ckpt/rank0/step5", int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if a.Now() <= vclock.Second {
		t.Error("buddy copy free of charge")
	}
	if size, _, err := buddyDev.SubmitGet(ioev.At(0), "ckpt/rank0/step5"); err != nil || size != int64(len(data)) {
		t.Errorf("buddy device does not hold the copy: %d bytes (%v)", size, err)
	}
	if err := Buddy(a, net, sys.Node(0), buddyDev, "x", int64(len(data))); err == nil {
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
	a := ioev.Detach(sys.Node(0), 0)
	counter := 0
	f := func(x, y, z []byte) bool {
		counter++
		path := fmt.Sprintf("/q%d.sion", counter)
		w, err := Create(a, b, path, 3, 64)
		if err != nil {
			return false
		}
		ins := [][]byte{x, y, z}
		for task, data := range ins {
			if err := w.WriteTask(a, task, data); err != nil {
				return false
			}
		}
		if err := w.Close(a); err != nil {
			return false
		}
		r, err := OpenRead(a, b, path)
		if err != nil {
			return false
		}
		for task, want := range ins {
			got, err := r.ReadTask(a, task)
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
