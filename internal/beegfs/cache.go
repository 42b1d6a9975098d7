package beegfs

import (
	"fmt"

	"clusterbooster/internal/ioev"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/nvme"
	"clusterbooster/internal/vclock"
)

// CacheMode selects how the BeeOND cache domain propagates data to the
// global file system (§III-C: "can be used in a synchronous or asynchronous
// mode").
type CacheMode int

const (
	// CacheAsync returns after the local NVMe write; a background daemon
	// drains to the global FS, and Drain waits for it.
	CacheAsync CacheMode = iota
	// CacheSync writes through: the call returns when the data is in the
	// global file system.
	CacheSync
)

// String names the cache mode.
func (m CacheMode) String() string {
	if m == CacheSync {
		return "sync"
	}
	return "async"
}

// Cache is a BeeOND cache domain: a transient file-system layer over the
// node-local NVMe devices of a job's nodes, in front of a global FS. Like
// FS it carries no mutex: the cooperative kernel serialises every access.
//
// The domain keeps metadata only — when each path's flush completes — and
// no bytes of its own: every Write flushes into the global file's content at
// submission, so a cached file and its global copy are one byte store and
// the cache is coherent with the global FS by construction.
type Cache struct {
	fs      *FS
	mode    CacheMode
	devs    map[int]*nvme.Device   // node ID → device
	pending map[string]vclock.Time // path → global-FS flush completion
}

// NewCache builds a cache domain in the given mode over the node set; each
// node contributes its NVMe device.
func NewCache(fs *FS, mode CacheMode, devs map[int]*nvme.Device) *Cache {
	return &Cache{
		fs:      fs,
		mode:    mode,
		devs:    devs,
		pending: map[string]vclock.Time{},
	}
}

// Write stores a whole file into the cache domain from the calling rank's
// node. In async mode the caller parks only until the local NVMe has the
// data, while the flush daemon's completion is a scheduled kernel event
// (Drain waits for it); in sync mode the caller parks until the global FS
// has the data. A flush still in flight when the job's last rank exits
// never completes — its completion event, like any pending callback, is
// dropped with the kernel. data is read only before the caller parks and is
// never retained, so the buffer may be refilled while the caller waits.
func (c *Cache) Write(p ioev.Proc, path string, data []byte) error {
	node := p.Node()
	dev, ok := c.devs[node.ID]
	if !ok {
		return fmt.Errorf("beegfs: node %s is not part of the cache domain", node.Name())
	}
	local, err := dev.SubmitPut(ioev.Start(p), "beeond:"+path, int64(len(data)))
	if err != nil {
		return fmt.Errorf("beegfs: cache write: %w", err)
	}
	// The flush daemon starts as soon as the data is local. The FS copies
	// data into the global file before submitFlush returns, so the caller
	// may reuse its buffer at once.
	flush, err := c.submitFlush(path, node, data, local)
	if err != nil {
		return err
	}
	p.CallAt(flush.Time(), func() { ioev.CountCacheFlush() })
	if c.mode == CacheSync {
		ioev.Await(p, flush)
	} else {
		ioev.Await(p, local)
	}
	return nil
}

// submitFlush issues the move of a cached file to the global FS after dep,
// recording its completion for Drain.
func (c *Cache) submitFlush(path string, node *machine.Node, data []byte, dep ioev.Op) (ioev.Op, error) {
	c.fs.SubmitCreate(dep, path, node)
	done, err := c.fs.SubmitWrite(dep, path, 0, data, node)
	if err != nil {
		return ioev.Op{}, fmt.Errorf("beegfs: cache flush of %s: %w", path, err)
	}
	c.pending[path] = done.Time()
	return done, nil
}

// Drain parks the caller until every scheduled flush has completed: the
// async mode's sync point (e.g. at job end), after which every cached file
// is safely in the global file system.
func (c *Cache) Drain(p ioev.Proc) {
	done := ioev.Start(p)
	for _, t := range c.pending {
		done = ioev.After(done, ioev.At(t))
	}
	ioev.Await(p, done)
}
