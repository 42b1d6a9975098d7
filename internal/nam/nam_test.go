package nam

import (
	"testing"

	"clusterbooster/internal/fabric"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/machine"
)

func testSetup() (*fabric.Network, *machine.System) {
	sys := machine.New(2, 2)
	return fabric.New(sys), sys
}

func TestPrototypePair(t *testing.T) {
	net, _ := testSetup()
	devs := NewPrototypePair(net)
	for _, d := range devs {
		if d.capacity != 2<<30 {
			t.Errorf("%s capacity = %d, want 2 GiB", d.name, d.capacity)
		}
	}
	if devs[0].name == devs[1].name {
		t.Error("devices share a name")
	}
}

func TestAllocFree(t *testing.T) {
	net, _ := testSetup()
	d := New(net, "nam0", 1000)
	r, err := d.Alloc("ckpt", 600)
	if err != nil {
		t.Fatal(err)
	}
	if r.size != 600 || d.used != 600 {
		t.Fatalf("size/used = %d/%d", r.size, d.used)
	}
	if _, err := d.Alloc("ckpt", 100); err == nil {
		t.Fatal("duplicate region name accepted")
	}
	if _, err := d.Alloc("big", 500); err == nil {
		t.Fatal("overcommit accepted")
	}
}

func TestRDMAAccessFromAllNodes(t *testing.T) {
	// The NAM is globally accessible: both Cluster and Booster nodes can
	// write it directly.
	net, sys := testSetup()
	d := New(net, "nam0", 1<<30)
	r, err := d.Alloc("data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range sys.Nodes() {
		op, err := r.SubmitWrite(ioev.At(0), n, 1<<20)
		if err != nil || op.Time() <= 0 {
			t.Fatalf("node %s write: %v at %v", n.Name(), err, op.Time())
		}
	}
}

func TestRegionBoundsChecked(t *testing.T) {
	net, sys := testSetup()
	d := New(net, "nam0", 1<<20)
	r, _ := d.Alloc("small", 100)
	if _, err := r.SubmitWrite(ioev.At(0), sys.Node(0), 200); err == nil {
		t.Fatal("oversized write accepted")
	}
	// A rejected transfer books no fabric time: the next write completes
	// exactly when the same write on an idle fabric does.
	after, err := r.SubmitWrite(ioev.At(0), sys.Node(0), 100)
	if err != nil {
		t.Fatal(err)
	}
	idleNet, idleSys := testSetup()
	idleRegion, _ := New(idleNet, "nam0", 1<<20).Alloc("small", 100)
	idle, _ := idleRegion.SubmitWrite(ioev.At(0), idleSys.Node(0), 100)
	if after.Time() != idle.Time() {
		t.Errorf("write after a rejected transfer completed at %v, want the idle-fabric %v", after.Time(), idle.Time())
	}
}

func TestWriteFasterThanNVMeForSmallData(t *testing.T) {
	// The NAM's raison d'être for checkpointing (ref [6]): RDMA at fabric
	// speed beats the local NVMe's write bandwidth for bursts.
	net, sys := testSetup()
	d := New(net, "nam0", 1<<30)
	r, _ := d.Alloc("burst", 256<<20)
	op, err := r.SubmitWrite(ioev.At(0), sys.Node(0), 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	// 256 MiB at ~11 GB/s ≈ 24 ms; NVMe write at 1.9 GB/s would be ~141 ms.
	if op.Time().Seconds() > 0.05 {
		t.Errorf("NAM write of 256 MiB took %v, want < 50 ms", op.Time())
	}
}
