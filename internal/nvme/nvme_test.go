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

func TestPutGetTiming(t *testing.T) {
	d := New(P3700())
	const size = 1900 * 1000 * 1000 // 1.9 GB: exactly 1 s at write bandwidth
	put, err := d.SubmitPut(ioev.At(0), "ckpt", size)
	if err != nil {
		t.Fatal(err)
	}
	if got := put.Time().Seconds(); math.Abs(got-1.0) > 0.01 {
		t.Errorf("1.9 GB write took %vs, want ~1s", got)
	}
	read, err := d.SubmitRead(put, "ckpt", size)
	if err != nil {
		t.Fatal(err)
	}
	wantRead := 1.0 + float64(size)/(2.7e9)
	if got := read.Time().Seconds(); math.Abs(got-wantRead) > 0.02 {
		t.Errorf("read done at %vs, want ~%vs", got, wantRead)
	}
}

// TestReadPricesRequestedBytes pins a range read to the bytes it asks for:
// reading a tenth of a blob costs one command plus a tenth of the blob's
// transfer, not the whole blob.
func TestReadPricesRequestedBytes(t *testing.T) {
	d := New(P3700())
	const size = 2700 * 1000 * 1000 // 1 s at read bandwidth
	put, err := d.SubmitPut(ioev.At(0), "ckpt", size)
	if err != nil {
		t.Fatal(err)
	}
	read, err := d.SubmitRead(put, "ckpt", size/10)
	if err != nil {
		t.Fatal(err)
	}
	want := P3700().CmdLatency + 100*vclock.Millisecond
	if got := read.Time() - put.Time(); math.Abs((got - want).Seconds()) > 1e-9 {
		t.Errorf("read of a tenth of the blob took %v, want %v", got, want)
	}
	if _, err := d.SubmitRead(put, "ckpt", size+1); err == nil {
		t.Error("read past the end of the blob accepted")
	}
	if _, err := d.SubmitRead(put, "ckpt", -1); err == nil {
		t.Error("read of a negative size accepted")
	}
}

func TestCapacityEnforced(t *testing.T) {
	d := New(Spec{Name: "tiny", CapacityBytes: 100, WriteGBs: 1, ReadGBs: 1})
	if _, err := d.SubmitPut(ioev.At(0), "a", 60); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SubmitPut(ioev.At(0), "b", 60); err == nil {
		t.Fatal("overflow accepted")
	}
	// Overwriting a blob replaces, not adds.
	if _, err := d.SubmitPut(ioev.At(0), "a", 90); err != nil {
		t.Fatalf("overwrite rejected: %v", err)
	}
	if d.used != 90 {
		t.Fatalf("used = %d, want 90", d.used)
	}
}

func TestDeleteAndDropAll(t *testing.T) {
	d := New(P3700())
	d.SubmitPut(ioev.At(0), "x", 1000)
	d.SubmitPut(ioev.At(0), "y", 2000)
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
	if _, err := d.SubmitRead(ioev.At(0), "nope", 0); err == nil {
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
	if _, err := d.SubmitPut(ioev.At(0), "big", 200); err == nil {
		t.Fatal("overflow accepted")
	}
	// A rejected command books no device time: the next one starts at once.
	op, err := d.SubmitPut(ioev.At(0), "small", 0)
	if err != nil || op.Time() != 0 {
		t.Errorf("put after a rejected one completes at %v (%v), want 0", op.Time(), err)
	}
}

func TestNegativeSizeRejected(t *testing.T) {
	d := New(P3700())
	if _, err := d.SubmitPut(ioev.At(0), "bad", -1); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestQuickUsedNeverExceedsCapacity(t *testing.T) {
	f := func(ops []struct {
		Name byte
		Size uint32
	}) bool {
		d := New(Spec{Name: "q", CapacityBytes: 1 << 20, WriteGBs: 1, ReadGBs: 1, CmdLatency: vclock.Microsecond})
		for _, op := range ops {
			d.SubmitPut(ioev.At(0), string(rune('a'+op.Name%8)), int64(op.Size)) // errors fine
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
