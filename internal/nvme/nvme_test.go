package nvme

import (
	"math"
	"testing"
	"testing/quick"

	"clusterbooster/internal/ioev"
	"clusterbooster/internal/vclock"
)

func TestP3700Spec(t *testing.T) {
	s := P3700()
	if s.CapacityBytes != 400*1000*1000*1000 {
		t.Errorf("capacity = %d, want 400 GB (Table I)", s.CapacityBytes)
	}
	if s.WriteGBs >= s.ReadGBs {
		t.Errorf("write bandwidth %v >= read %v; P3700 reads faster", s.WriteGBs, s.ReadGBs)
	}
}

// get reads a blob and parks the actor until the read completes.
func get(d *Device, a ioev.Proc, name string) (int64, error) {
	size, op, err := d.SubmitGet(ioev.Start(a), name)
	if err == nil {
		ioev.Await(a, op)
	}
	return size, err
}

func TestPutGetTiming(t *testing.T) {
	d := New(P3700())
	const size = 1900 * 1000 * 1000 // 1.9 GB: exactly 1 s at write bandwidth
	a := ioev.Detach(nil, 0)
	if err := d.Put(a, "ckpt", size); err != nil {
		t.Fatal(err)
	}
	if got := a.Now().Seconds(); math.Abs(got-1.0) > 0.01 {
		t.Errorf("1.9 GB write took %vs, want ~1s", got)
	}
	n, err := get(d, a, "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if n != size {
		t.Errorf("got %d bytes", n)
	}
	wantRead := 1.0 + float64(size)/(2.7e9)
	if got := a.Now().Seconds(); math.Abs(got-wantRead) > 0.02 {
		t.Errorf("read done at %vs, want ~%vs", got, wantRead)
	}
}

func TestCapacityEnforced(t *testing.T) {
	d := New(Spec{Name: "tiny", CapacityBytes: 100, WriteGBs: 1, ReadGBs: 1})
	a := ioev.Detach(nil, 0)
	if err := d.Put(a, "a", 60); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(a, "b", 60); err == nil {
		t.Fatal("overflow accepted")
	}
	// Overwriting a blob replaces, not adds.
	if err := d.Put(a, "a", 90); err != nil {
		t.Fatalf("overwrite rejected: %v", err)
	}
	if d.used != 90 {
		t.Fatalf("used = %d, want 90", d.used)
	}
}

func TestDeleteAndDropAll(t *testing.T) {
	d := New(P3700())
	a := ioev.Detach(nil, 0)
	d.Put(a, "x", 1000)
	d.Put(a, "y", 2000)
	if len(d.blobs) != 2 {
		t.Fatalf("blobs = %d", len(d.blobs))
	}
	d.DropAll()
	if len(d.blobs) != 0 || d.used != 0 {
		t.Fatal("DropAll left state")
	}
}

func TestGetMissing(t *testing.T) {
	d := New(P3700())
	if _, err := get(d, ioev.Detach(nil, 0), "nope"); err == nil {
		t.Fatal("missing blob read succeeded")
	}
}

func TestQueueSerialises(t *testing.T) {
	// Two simultaneous writes must not overlap on the device.
	d := New(P3700())
	const size = 190 * 1000 * 1000 // 0.1 s each
	op1, _ := d.SubmitPut(ioev.At(0), "a", size)
	op2, _ := d.SubmitPut(ioev.At(0), "b", size)
	if gap := (op2.Time() - op1.Time()).Seconds(); math.Abs(gap-0.1) > 0.01 {
		t.Errorf("second write finished %vs after first, want ~0.1s", gap)
	}
}

func TestFailedPutAdvancesNoTime(t *testing.T) {
	d := New(Spec{Name: "tiny", CapacityBytes: 100, WriteGBs: 1, ReadGBs: 1})
	a := ioev.Detach(nil, 0)
	if err := d.Put(a, "big", 200); err == nil {
		t.Fatal("overflow accepted")
	}
	if a.Now() != 0 {
		t.Errorf("failed put advanced the clock to %v", a.Now())
	}
}

func TestNegativeSizeRejected(t *testing.T) {
	d := New(P3700())
	if err := d.Put(ioev.Detach(nil, 0), "bad", -1); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestQuickUsedNeverExceedsCapacity(t *testing.T) {
	f := func(ops []struct {
		Name byte
		Size uint32
	}) bool {
		d := New(Spec{Name: "q", CapacityBytes: 1 << 20, WriteGBs: 1, ReadGBs: 1, CmdLatency: vclock.Microsecond})
		a := ioev.Detach(nil, 0)
		for _, op := range ops {
			d.Put(a, string(rune('a'+op.Name%8)), int64(op.Size)) // errors fine
			if d.used > d.spec.CapacityBytes || d.used < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
