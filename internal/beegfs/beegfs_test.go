package beegfs

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"clusterbooster/internal/fabric"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/nvme"
	"clusterbooster/internal/vclock"
)

func testFS(cfg Config) (*FS, *machine.System) {
	sys := machine.New(4, 2)
	net := fabric.New(sys, fabric.Config{})
	return New(net, cfg), sys
}

func TestCreateWriteReadBack(t *testing.T) {
	fs, sys := testFS(Config{})
	a := ioev.Detach(sys.Node(0), 0)
	fs.Create(a, "/out/data.bin")
	payload := bytes.Repeat([]byte("deep-er!"), 1000)
	if err := fs.Write(a, "/out/data.bin", 0, payload); err != nil {
		t.Fatal(err)
	}
	done := a.Now()
	got, err := fs.Read(a, "/out/data.bin", 0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read back differs from written data")
	}
	if a.Now() <= done {
		t.Fatal("read completed before it started")
	}
}

func TestWriteAtOffsetExtends(t *testing.T) {
	fs, sys := testFS(Config{})
	a := ioev.Detach(sys.Node(0), 0)
	fs.Create(a, "/f")
	fs.Write(a, "/f", 10, []byte("abc"))
	size, err := fs.Size("/f")
	if err != nil || size != 13 {
		t.Fatalf("size = %d (%v), want 13", size, err)
	}
	got, _ := fs.Read(a, "/f", 0, 13)
	if got[0] != 0 || string(got[10:]) != "abc" {
		t.Fatalf("content = %q", got)
	}
}

func TestMissingFileErrors(t *testing.T) {
	fs, sys := testFS(Config{})
	a := ioev.Detach(sys.Node(0), 0)
	if err := fs.Write(a, "/nope", 0, []byte("x")); err == nil {
		t.Error("write to missing file succeeded")
	}
	if _, err := fs.Read(a, "/nope", 0, 1); err == nil {
		t.Error("read of missing file succeeded")
	}
	if _, err := fs.Size("/nope"); err == nil {
		t.Error("stat of missing file succeeded")
	}
}

func TestReadBeyondEOF(t *testing.T) {
	fs, sys := testFS(Config{})
	a := ioev.Detach(sys.Node(0), 0)
	fs.Create(a, "/f")
	fs.Write(a, "/f", 0, []byte("abc"))
	if _, err := fs.Read(a, "/f", 0, 10); err == nil {
		t.Error("read beyond EOF succeeded")
	}
}

func TestReadNegativeSizeErrors(t *testing.T) {
	fs, sys := testFS(Config{})
	a := ioev.Detach(sys.Node(0), 0)
	fs.Create(a, "/f")
	fs.Write(a, "/f", 0, []byte("abcdef"))
	if _, err := fs.Read(a, "/f", 4, -2); err == nil {
		t.Error("read with a negative size succeeded")
	}
}

func TestDeleteFreesSpace(t *testing.T) {
	fs, sys := testFS(Config{})
	a := ioev.Detach(sys.Node(0), 0)
	fs.Create(a, "/f")
	fs.Write(a, "/f", 0, make([]byte, 1000))
	if fs.Used() != 1000 {
		t.Fatalf("used = %d", fs.Used())
	}
	fs.Delete(a, "/f")
	if fs.Used() != 0 || fs.Exists("/f") {
		t.Fatal("delete did not free")
	}
}

func TestCapacityEnforced(t *testing.T) {
	fs, sys := testFS(Config{CapacityBytes: 1000})
	a := ioev.Detach(sys.Node(0), 0)
	fs.Create(a, "/f")
	if err := fs.Write(a, "/f", 0, make([]byte, 2000)); err == nil {
		t.Error("overflow accepted")
	}
}

func TestStripingUsesBothTargets(t *testing.T) {
	// A two-chunk write must land one chunk on each target; its time should
	// be roughly one chunk per target, not two chunks on one.
	cfg := Config{ChunkSize: 1 << 20}
	fs, sys := testFS(cfg)
	a := ioev.Detach(sys.Node(0), 0)
	fs.Create(a, "/big")
	start := a.Now()
	twoChunks := make([]byte, 2<<20)
	if err := fs.Write(a, "/big", 0, twoChunks); err != nil {
		t.Fatal(err)
	}
	elapsed := a.Now() - start
	perChunkDisk := float64(1<<20) / (fs.Config().TargetGBs * 1e9)
	// Both chunks cross the client's injection link serially (~2 net times),
	// then hit different disks in parallel: total ≪ 2 disk times + 2 net.
	netTime := float64(2<<20) / (12.5 * 0.88 * 1e9)
	budget := perChunkDisk + 2*netTime + 0.001
	if elapsed.Seconds() > budget {
		t.Errorf("striped write took %vs, want < %vs (parallel targets)", elapsed.Seconds(), budget)
	}
}

func TestTargetSpan(t *testing.T) {
	fs, _ := testFS(Config{ChunkSize: 100, StorageTargets: 2})
	span := fs.targetSpan(50, 200) // covers chunks 0(50B),1(100B),2(50B)
	if span[0] != 100 || span[1] != 100 {
		t.Errorf("span = %v, want [100 100]", span)
	}
}

func TestList(t *testing.T) {
	fs, sys := testFS(Config{})
	a := ioev.Detach(sys.Node(0), 0)
	fs.Create(a, "/b")
	fs.Create(a, "/a")
	got := fs.List()
	if len(got) != 2 || got[0] != "/a" || got[1] != "/b" {
		t.Errorf("list = %v", got)
	}
}

func TestSubmitWriteThreadsDependency(t *testing.T) {
	// The submission layer must price a dependent write strictly after its
	// dependency without any actor clock in play.
	fs, sys := testFS(Config{})
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
	fs, sys := testFS(Config{ChunkSize: 64})
	a := ioev.Detach(sys.Node(0), 0)
	fs.Create(a, "/q")
	f := func(off uint16, data []byte) bool {
		if err := fs.Write(a, "/q", int64(off), data); err != nil {
			return false
		}
		got, err := fs.Read(a, "/q", int64(off), int64(len(data)))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- cache domain tests ---

func cacheSetup(mode CacheMode) (*Cache, *machine.System) {
	sys := machine.New(4, 2)
	net := fabric.New(sys, fabric.Config{})
	fs := New(net, Config{})
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
	aa := ioev.Detach(sysA.Node(0), 0)
	if err := ca.Write(aa, "/ckpt", data); err != nil {
		t.Fatal(err)
	}
	cs, sysS := cacheSetup(CacheSync)
	as := ioev.Detach(sysS.Node(0), 0)
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
	a := ioev.Detach(sys.Node(0), 0)
	c.Write(a, "/a", data)
	localDone := a.Now()
	c.Drain(a)
	if a.Now() <= localDone {
		t.Errorf("drain (%v) not after local completion (%v)", a.Now(), localDone)
	}
	// After the drain the file must be in the global FS.
	if !c.fs.Exists("/a") {
		t.Error("flush did not reach the global FS")
	}
	sz, _ := c.fs.Size("/a")
	if sz != int64(len(data)) {
		t.Errorf("global copy has %d bytes, want %d", sz, len(data))
	}
}

func TestCacheLocalReadFastPath(t *testing.T) {
	c, sys := cacheSetup(CacheAsync)
	data := bytes.Repeat([]byte("x"), 32<<20)
	owner, other := sys.Node(0), sys.Node(1)
	aw := ioev.Detach(owner, 0)
	c.Write(aw, "/f", data)
	aLocal := ioev.Detach(owner, vclock.Second)
	if _, err := c.Read(aLocal, "/f"); err != nil {
		t.Fatal(err)
	}
	aRemote := ioev.Detach(other, vclock.Second)
	if _, err := c.Read(aRemote, "/f"); err != nil {
		t.Fatal(err)
	}
	if aLocal.Now() >= aRemote.Now() {
		t.Errorf("local cached read (%v) not faster than global read (%v)", aLocal.Now(), aRemote.Now())
	}
}

func TestCacheContentRoundTrip(t *testing.T) {
	c, sys := cacheSetup(CacheSync)
	data := []byte("precious checkpoint bytes")
	a := ioev.Detach(sys.Node(2), 0)
	c.Write(a, "/f", data)
	got, err := c.Read(a, "/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("cache read = %q (%v)", got, err)
	}
	b := ioev.Detach(sys.Node(3), 0)
	got2, err := c.fs.Read(b, "/f", 0, int64(len(data)))
	if err != nil || !bytes.Equal(got2, data) {
		t.Fatalf("global read = %q (%v)", got2, err)
	}
}

func TestCacheRejectsForeignNode(t *testing.T) {
	sys := machine.New(2, 0)
	net := fabric.New(sys, fabric.Config{})
	fs := New(net, Config{})
	devs := map[int]*nvme.Device{sys.Node(0).ID: nvme.New(nvme.P3700())}
	c := NewCache(fs, CacheAsync, devs)
	a := ioev.Detach(sys.Node(1), 0)
	if err := c.Write(a, "/f", []byte("x")); err == nil {
		t.Error("write from node outside the cache domain succeeded")
	}
}

func TestCacheEvictFreesNVMe(t *testing.T) {
	c, sys := cacheSetup(CacheAsync)
	a := ioev.Detach(sys.Node(0), 0)
	c.Write(a, "/f", make([]byte, 1000))
	dev := c.devs[sys.Node(0).ID]
	if dev.Used() == 0 {
		t.Fatal("cache write did not use NVMe")
	}
	c.Evict("/f")
	if dev.Used() != 0 {
		t.Error("evict did not free NVMe space")
	}
	if math.Abs(float64(dev.Used())) > 0 {
		t.Error("nvme not empty")
	}
}

func TestCacheReadAfterEvict(t *testing.T) {
	c, sys := cacheSetup(CacheAsync)
	data := []byte("evicted but still global")
	a := ioev.Detach(sys.Node(0), 0)
	if err := c.Write(a, "/f", data); err != nil {
		t.Fatal(err)
	}
	c.Evict("/f")
	if !c.fs.Exists("/f") {
		t.Fatal("evict removed the global copy")
	}
	got, err := c.Read(a, "/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after evict = %q (%v), want the global file %q", got, err, data)
	}
	if _, err := c.Read(a, "/never-written"); err == nil {
		t.Error("read of a file that exists nowhere succeeded")
	}
}

func TestCacheReadCoherentWithGlobal(t *testing.T) {
	// The cache keeps no bytes of its own: a rewrite of the global file is
	// what the owner's fast path returns, and a delete behind the cache is
	// the file system's error rather than stale data.
	c, sys := cacheSetup(CacheSync)
	a := ioev.Detach(sys.Node(0), 0)
	if err := c.Write(a, "/f", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := c.fs.Write(a, "/f", 0, []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(a, "/f")
	if err != nil || string(got) != "new" {
		t.Fatalf("owner read = %q (%v), want the global content %q", got, err, "new")
	}
	got[0] = 'X'
	if again, _ := c.Read(a, "/f"); string(again) != "new" {
		t.Errorf("mutating a read result changed the file: %q", again)
	}
	c.fs.Delete(a, "/f")
	if _, err := c.Read(a, "/f"); err == nil {
		t.Error("read of a file deleted behind the cache succeeded")
	}
}

func TestCacheWriteAllocatesOnePayload(t *testing.T) {
	// One resident copy per cached byte: the global file's content. The
	// write itself must not clone the payload a second time.
	const size = 8 << 20
	data := bytes.Repeat([]byte("c"), size)
	for _, mode := range []CacheMode{CacheAsync, CacheSync} {
		c, sys := cacheSetup(mode)
		a := ioev.Detach(sys.Node(0), 0)
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
