package beegfs

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"

	"clusterbooster/internal/fabric"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/nvme"
	"clusterbooster/internal/vclock"
)

func testFS() (*FS, *machine.System) {
	sys := machine.New(4, 2)
	return New(fabric.New(sys)), sys
}

// at0 is the dependency of every operation whose timing a test ignores.
var at0 = ioev.At(0)

func TestCreateWriteReadBack(t *testing.T) {
	fs, sys := testFS()
	n := sys.Node(0)
	created := fs.SubmitCreate(at0, "/out/data.bin", n)
	payload := bytes.Repeat([]byte("deep-er!"), 1000)
	done, err := fs.SubmitWrite(created, "/out/data.bin", 0, payload, n)
	if err != nil {
		t.Fatal(err)
	}
	got, read, err := fs.SubmitRead(done, "/out/data.bin", 0, int64(len(payload)), n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read back differs from written data")
	}
	if read.Time() <= done.Time() {
		t.Fatal("read completed before it started")
	}
}

func TestWriteAtOffsetExtends(t *testing.T) {
	fs, sys := testFS()
	n := sys.Node(0)
	fs.SubmitCreate(at0, "/f", n)
	fs.SubmitWrite(at0, "/f", 10, []byte("abc"), n)
	size, err := fs.Size("/f")
	if err != nil || size != 13 {
		t.Fatalf("size = %d (%v), want 13", size, err)
	}
	got, _, _ := fs.SubmitRead(at0, "/f", 0, 13, n)
	if got[0] != 0 || string(got[10:]) != "abc" {
		t.Fatalf("content = %q", got)
	}
}

func TestMissingFileErrors(t *testing.T) {
	fs, sys := testFS()
	n := sys.Node(0)
	if _, err := fs.SubmitWrite(at0, "/nope", 0, []byte("x"), n); err == nil {
		t.Error("write to missing file succeeded")
	}
	if _, _, err := fs.SubmitRead(at0, "/nope", 0, 1, n); err == nil {
		t.Error("read of missing file succeeded")
	}
	if _, err := fs.Size("/nope"); err == nil {
		t.Error("stat of missing file succeeded")
	}
}

func TestReadBeyondEOF(t *testing.T) {
	fs, sys := testFS()
	n := sys.Node(0)
	fs.SubmitCreate(at0, "/f", n)
	fs.SubmitWrite(at0, "/f", 0, []byte("abc"), n)
	if _, _, err := fs.SubmitRead(at0, "/f", 0, 10, n); err == nil {
		t.Error("read beyond EOF succeeded")
	}
}

func TestReadNegativeSizeErrors(t *testing.T) {
	fs, sys := testFS()
	n := sys.Node(0)
	fs.SubmitCreate(at0, "/f", n)
	fs.SubmitWrite(at0, "/f", 0, []byte("abcdef"), n)
	if _, _, err := fs.SubmitRead(at0, "/f", 4, -2, n); err == nil {
		t.Error("read with a negative size succeeded")
	}
}

// TestDeleteFreesSpace checks that re-creating a file deletes its old
// content and frees the space it held.
func TestDeleteFreesSpace(t *testing.T) {
	fs, sys := testFS()
	n := sys.Node(0)
	fs.SubmitCreate(at0, "/f", n)
	fs.SubmitWrite(at0, "/f", 0, make([]byte, 1000), n)
	if fs.used != 1000 {
		t.Fatalf("used = %d", fs.used)
	}
	fs.SubmitCreate(at0, "/f", n)
	if size, _ := fs.Size("/f"); fs.used != 0 || size != 0 {
		t.Fatalf("re-create left used = %d, size = %d", fs.used, size)
	}
}

func TestCapacityEnforced(t *testing.T) {
	fs, sys := testFS()
	fs.cfg.CapacityBytes = 1000
	n := sys.Node(0)
	fs.SubmitCreate(at0, "/f", n)
	if _, err := fs.SubmitWrite(at0, "/f", 0, make([]byte, 2000), n); err == nil {
		t.Error("overflow accepted")
	}
}

func TestStripingUsesBothTargets(t *testing.T) {
	// A two-chunk write must land one chunk on each target; its time should
	// be roughly one chunk per target, not two chunks on one.
	fs, sys := testFS()
	fs.cfg.ChunkSize = 1 << 20
	n := sys.Node(0)
	created := fs.SubmitCreate(at0, "/big", n)
	twoChunks := make([]byte, 2<<20)
	done, err := fs.SubmitWrite(created, "/big", 0, twoChunks, n)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := done.Time() - created.Time()
	perChunkDisk := float64(1<<20) / (fs.cfg.TargetGBs * 1e9)
	// Both chunks cross the client's injection link serially (~2 net times),
	// then hit different disks in parallel: total ≪ 2 disk times + 2 net.
	netTime := float64(2<<20) / (12.5 * 0.88 * 1e9)
	budget := perChunkDisk + 2*netTime + 0.001
	if elapsed.Seconds() > budget {
		t.Errorf("striped write took %vs, want < %vs (parallel targets)", elapsed.Seconds(), budget)
	}
}

func TestTargetSpan(t *testing.T) {
	fs, _ := testFS()
	fs.cfg.ChunkSize = 100
	span := fs.targetSpan(50, 200) // covers chunks 0(50B),1(100B),2(50B)
	if span[0] != 100 || span[1] != 100 {
		t.Errorf("span = %v, want [100 100]", span)
	}
}

func TestSubmitWriteThreadsDependency(t *testing.T) {
	// The submission layer must price a dependent write strictly after its
	// dependency without any actor clock in play.
	fs, sys := testFS()
	n := sys.Node(0)
	created := fs.SubmitCreate(ioev.At(0), "/f", n)
	op1, err := fs.SubmitWrite(created, "/f", 0, make([]byte, 1<<20), n)
	if err != nil {
		t.Fatal(err)
	}
	op2, err := fs.SubmitWrite(op1, "/f", 1<<20, make([]byte, 1<<20), n)
	if err != nil {
		t.Fatal(err)
	}
	if !(created.Time() > 0 && op1.Time() > created.Time() && op2.Time() > op1.Time()) {
		t.Errorf("ops not ordered: create=%v write1=%v write2=%v",
			created.Time(), op1.Time(), op2.Time())
	}
}

func TestQuickWriteReadRoundTrip(t *testing.T) {
	fs, sys := testFS()
	fs.cfg.ChunkSize = 64
	n := sys.Node(0)
	fs.SubmitCreate(at0, "/q", n)
	f := func(off uint16, data []byte) bool {
		if _, err := fs.SubmitWrite(at0, "/q", int64(off), data, n); err != nil {
			return false
		}
		got, _, err := fs.SubmitRead(at0, "/q", int64(off), int64(len(data)), n)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- cache domain tests ---

// actor is the minimal ioev.Proc the cache domain's parking API needs
// outside a kernel job: a private clock that Elapse advances, and CallAt
// callbacks run inline at issue time.
type actor struct {
	node *machine.Node
	now  vclock.Time
}

func (a *actor) Node() *machine.Node             { return a.node }
func (a *actor) Now() vclock.Time                { return a.now }
func (a *actor) Elapse(d vclock.Time)            { a.now += d }
func (a *actor) CallAt(_ vclock.Time, fn func()) { fn() }

func cacheSetup(mode CacheMode) (*Cache, *machine.System) {
	sys := machine.New(4, 2)
	net := fabric.New(sys)
	fs := New(net)
	devs := map[int]*nvme.Device{}
	for _, n := range sys.Nodes() {
		devs[n.ID] = nvme.New(nvme.P3700())
	}
	return NewCache(fs, mode, devs), sys
}

func TestCacheAsyncFasterThanSync(t *testing.T) {
	// The point of the cache domain: async writes return at NVMe speed.
	data := make([]byte, 64<<20)
	ca, sysA := cacheSetup(CacheAsync)
	aa := &actor{node: sysA.Node(0)}
	if err := ca.Write(aa, "/ckpt", data); err != nil {
		t.Fatal(err)
	}
	cs, sysS := cacheSetup(CacheSync)
	as := &actor{node: sysS.Node(0)}
	if err := cs.Write(as, "/ckpt", data); err != nil {
		t.Fatal(err)
	}
	if aa.Now() >= as.Now() {
		t.Errorf("async write (%v) not faster than sync (%v)", aa.Now(), as.Now())
	}
	// The async return is exactly one NVMe write command on an idle
	// device: command latency plus size over the write bandwidth.
	spec := nvme.P3700()
	want := spec.CmdLatency + vclock.Time(float64(len(data))/(spec.WriteGBs*1e9))
	if aa.Now() != want {
		t.Errorf("async write returned at %v, want the P3700 write time %v", aa.Now(), want)
	}
}

func TestCacheDrainCoversFlush(t *testing.T) {
	c, sys := cacheSetup(CacheAsync)
	data := make([]byte, 64<<20)
	a := &actor{node: sys.Node(0)}
	c.Write(a, "/a", data)
	localDone := a.Now()
	c.Drain(a)
	if a.Now() <= localDone {
		t.Errorf("drain (%v) not after local completion (%v)", a.Now(), localDone)
	}
	// After the drain the file must be in the global FS.
	sz, err := c.fs.Size("/a")
	if err != nil {
		t.Fatalf("flush did not reach the global FS: %v", err)
	}
	if sz != int64(len(data)) {
		t.Errorf("global copy has %d bytes, want %d", sz, len(data))
	}
}

func TestCacheContentRoundTrip(t *testing.T) {
	c, sys := cacheSetup(CacheSync)
	data := []byte("precious checkpoint bytes")
	if err := c.Write(&actor{node: sys.Node(2)}, "/f", append([]byte(nil), data...)); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.fs.SubmitRead(at0, "/f", 0, int64(len(data)), sys.Node(3))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("global read = %q (%v)", got, err)
	}
}

func TestCacheRejectsForeignNode(t *testing.T) {
	sys := machine.New(2, 0)
	net := fabric.New(sys)
	fs := New(net)
	devs := map[int]*nvme.Device{sys.Node(0).ID: nvme.New(nvme.P3700())}
	c := NewCache(fs, CacheAsync, devs)
	a := &actor{node: sys.Node(1)}
	if err := c.Write(a, "/f", []byte("x")); err == nil {
		t.Error("write from node outside the cache domain succeeded")
	}
}

func TestCacheWriteAllocatesOnePayload(t *testing.T) {
	// One resident copy per cached byte: the global file's content. The
	// write itself must not clone the payload a second time.
	const size = 8 << 20
	data := bytes.Repeat([]byte("c"), size)
	for _, mode := range []CacheMode{CacheAsync, CacheSync} {
		c, sys := cacheSetup(mode)
		a := &actor{node: sys.Node(0)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := c.Write(a, "/ckpt", data); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 1.1*size {
			t.Errorf("%v: write of %d bytes allocated %d (%.2f× the payload), want ≤ 1.1×",
				mode, size, got, float64(got)/size)
		}
	}
}
