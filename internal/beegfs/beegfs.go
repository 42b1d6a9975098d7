// Package beegfs models the parallel file system of the DEEP-ER prototype:
// BeeGFS with one metadata server and two storage servers holding 57 TB of
// spinning disks (§II-B, §III-C of the paper), plus the BeeOND-based cache
// domain on node-local NVMe that DEEP-ER added (cache.go).
//
// Files are striped in fixed-size chunks over the storage targets. A write
// first crosses the fabric to each involved target (RDMA), then occupies that
// target's disk queue; a read does the reverse. Content is stored for real,
// each file in an ioev.Content (fixed-size chunks that never move, so growing
// a file copies none of the bytes it already holds): SIONlib containers and
// checkpoints written through this package can be read back and verified
// bit-for-bit, while all costs are virtual-time. The cache domain holds no
// content of its own, only when each path's flush completes: a cached write
// puts the bytes into the global file at once, so the cache is always
// coherent with the global FS.
//
// File-system latencies are scheduled kernel events: the Submit* forms
// issue against an ioev.Op dependency without parking, so layered writers
// (a SION container fanning one flush across both stripe targets, SCR
// overlapping a global write with a buddy copy) can join several
// completions before a single park. The FS carries no mutex — under
// the cooperative kernel exactly one rank (or baton-holding callback) runs
// at a time and every method executes within one turn, the same
// serialisation argument as scr.
package beegfs

import (
	"fmt"

	"clusterbooster/internal/fabric"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// params describes the file-system deployment.
type params struct {
	StorageTargets int         // number of storage servers
	ChunkSize      int         // stripe chunk size in bytes
	TargetGBs      float64     // per-target disk array bandwidth
	MetaLatency    vclock.Time // metadata operation service time
	CapacityBytes  int64       // total capacity
}

// prototype is the DEEP-ER storage deployment: 2 storage servers with
// spinning-disk arrays (~1.2 GB/s each), 1 metadata server, 57 TB. It is a
// variable, not constants, for the reason given at fabric's prototype.
var prototype = params{
	StorageTargets: 2,
	ChunkSize:      512 << 10,
	TargetGBs:      1.2,
	MetaLatency:    500 * vclock.Microsecond,
	CapacityBytes:  57 << 40,
}

// FS is a BeeGFS instance on the fabric.
type FS struct {
	cfg       params
	net       *fabric.Network
	metaEP    int
	metaQ     *vclock.SharedClock
	targetEPs []int
	targetQs  []*vclock.SharedClock
	files     map[string]*ioev.Content
	used      int64
}

// New attaches the prototype's file system to the fabric.
func New(net *fabric.Network) *FS {
	fs := &FS{
		cfg:    prototype,
		net:    net,
		metaEP: net.AttachEndpoint(),
		metaQ:  vclock.NewSharedClock(),
		files:  map[string]*ioev.Content{},
	}
	for i := 0; i < fs.cfg.StorageTargets; i++ {
		fs.targetEPs = append(fs.targetEPs, net.AttachEndpoint())
		fs.targetQs = append(fs.targetQs, vclock.NewSharedClock())
	}
	return fs
}

// submitMetaOp costs one metadata round trip from the node: fabric latency
// to the MDS plus the (serialised) metadata service time.
func (fs *FS) submitMetaOp(dep ioev.Op, node *machine.Node) ioev.Op {
	req := fs.net.RDMAWrite(node, fs.metaEP, 64, dep.Time())
	_, end := fs.metaQ.Reserve(req, fs.cfg.MetaLatency)
	return ioev.At(end)
}

// SubmitCreate makes an empty file (overwriting any existing one) and issues
// the metadata round trip after dep without parking, from node.
func (fs *FS) SubmitCreate(dep ioev.Op, path string, node *machine.Node) ioev.Op {
	if old, ok := fs.files[path]; ok {
		fs.used -= old.Size()
	}
	fs.files[path] = &ioev.Content{}
	return fs.submitMetaOp(dep, node)
}

// file returns a file's content, or the no-such-file error.
func (fs *FS) file(path string) (*ioev.Content, error) {
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("beegfs: %s: no such file", path)
	}
	return f, nil
}

// Size returns the current size of a file.
func (fs *FS) Size(path string) (int64, error) {
	f, err := fs.file(path)
	if err != nil {
		return 0, err
	}
	return f.Size(), nil
}

// targetSpan computes how many bytes of a [offset, offset+size) write land on
// each storage target under chunked striping.
func (fs *FS) targetSpan(offset, size int64) []int64 {
	out := make([]int64, fs.cfg.StorageTargets)
	cs := int64(fs.cfg.ChunkSize)
	for pos := offset; pos < offset+size; {
		chunk := pos / cs
		end := (chunk + 1) * cs
		if end > offset+size {
			end = offset + size
		}
		out[chunk%int64(fs.cfg.StorageTargets)] += end - pos
		pos = end
	}
	return out
}

// SubmitWrite stores data at the given offset, extending the file as needed,
// and issues the striped write after dep without parking, from node: each
// target receives its chunks over the fabric and then commits them to disk,
// and the returned token completes when the slowest target is done.
func (fs *FS) SubmitWrite(dep ioev.Op, path string, offset int64, data []byte, node *machine.Node) (ioev.Op, error) {
	if offset < 0 {
		return ioev.Op{}, fmt.Errorf("beegfs: negative offset %d", offset)
	}
	f, err := fs.file(path)
	if err != nil {
		return ioev.Op{}, err
	}
	if grow := offset + int64(len(data)) - f.Size(); grow > 0 {
		if fs.used+grow > fs.cfg.CapacityBytes {
			return ioev.Op{}, fmt.Errorf("beegfs: file system full (%d + %d > %d)", fs.used, grow, fs.cfg.CapacityBytes)
		}
		fs.used += grow
	}
	f.WriteAt(data, offset)

	done := dep
	for t, bytes := range fs.targetSpan(offset, int64(len(data))) {
		if bytes == 0 {
			continue
		}
		arrive := fs.net.RDMAWrite(node, fs.targetEPs[t], int(bytes), dep.Time())
		_, end := fs.targetQs[t].Reserve(arrive, vclock.Time(float64(bytes)/(fs.cfg.TargetGBs*1e9)))
		done = ioev.After(done, ioev.At(end))
	}
	return done, nil
}

// SubmitRead issues the striped read after dep without parking, from node:
// each target reads its chunks from disk and ships them over the fabric. It
// returns the data and the completion token of the slowest target.
func (fs *FS) SubmitRead(dep ioev.Op, path string, offset, size int64, node *machine.Node) ([]byte, ioev.Op, error) {
	f, err := fs.file(path)
	if err != nil {
		return nil, ioev.Op{}, err
	}
	if size < 0 {
		return nil, ioev.Op{}, fmt.Errorf("beegfs: negative read size %d of %s", size, path)
	}
	if offset < 0 || offset+size > f.Size() {
		return nil, ioev.Op{}, fmt.Errorf("beegfs: read [%d,%d) beyond EOF %d of %s", offset, offset+size, f.Size(), path)
	}
	out := f.ReadAt(offset, size)

	done := dep
	for t, bytes := range fs.targetSpan(offset, size) {
		if bytes == 0 {
			continue
		}
		_, diskEnd := fs.targetQs[t].Reserve(dep.Time(), vclock.Time(float64(bytes)/(fs.cfg.TargetGBs*1e9)))
		arrive := fs.net.RDMARead(node, fs.targetEPs[t], int(bytes), diskEnd)
		done = ioev.After(done, ioev.At(arrive))
	}
	return out, done, nil
}
