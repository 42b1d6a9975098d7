// Package nvme models the node-local non-volatile memory device of the
// DEEP-ER prototype: an Intel DC P3700 NVMe SSD with 400 GB, attached through
// four lanes of PCIe gen3 (§II-B of the paper). The device is the foundation
// of the prototype's I/O buffering and multi-level checkpointing: SCR's
// "local" and "buddy" checkpoint levels and BeeOND's cache domain both live
// on it.
//
// The model has a capacity-accounted object store (named blobs) and a timing
// model: command latency plus size over sequential bandwidth, with all
// commands serialised through the device queue (a vclock.SharedClock), so
// concurrent writers see realistic queueing delays.
//
// Device latencies are scheduled kernel events: Put parks the calling
// ioev.Proc until the command completes, and the Submit* forms issue a
// command against an ioev.Op dependency without parking, for composed paths
// that join several operations before a single park. The device carries no
// mutex — like the rest of the migrated I/O stack it relies on the
// cooperative kernel for serialisation: exactly one rank (or baton-holding
// callback) runs at a time, every method runs entirely within one turn, and
// detached actors price I/O from a single host goroutine per scenario.
package nvme

import (
	"fmt"

	"clusterbooster/internal/ioev"
	"clusterbooster/internal/vclock"
)

// Spec describes a device model.
type Spec struct {
	Name          string
	CapacityBytes int64
	ReadGBs       float64     // sequential read bandwidth
	WriteGBs      float64     // sequential write bandwidth
	CmdLatency    vclock.Time // per-command setup latency
}

// P3700 returns the Intel DC P3700 400 GB specification (the prototype's
// device): ~2.7 GB/s read, ~1.9 GB/s write, ~20 µs command latency.
func P3700() Spec {
	return Spec{
		Name:          "Intel DC P3700 400GB",
		CapacityBytes: 400 * 1000 * 1000 * 1000,
		ReadGBs:       2.7,
		WriteGBs:      1.9,
		CmdLatency:    20 * vclock.Microsecond,
	}
}

// Device is one NVMe device instance.
type Device struct {
	spec  Spec
	queue *vclock.SharedClock
	used  int64
	blobs map[string]int64
}

// New builds a device with the given spec.
func New(spec Spec) *Device {
	return &Device{
		spec:  spec,
		queue: vclock.NewSharedClock(),
		blobs: map[string]int64{},
	}
}

// writeTime models one write command of the given size.
func (d *Device) writeTime(size int64) vclock.Time {
	return d.spec.CmdLatency + vclock.Time(float64(size)/(d.spec.WriteGBs*1e9))
}

// readTime models one read command of the given size.
func (d *Device) readTime(size int64) vclock.Time {
	return d.spec.CmdLatency + vclock.Time(float64(size)/(d.spec.ReadGBs*1e9))
}

// Put stores (or overwrites) a named blob of the given size and parks the
// caller until the write command completes. Fails (without advancing time)
// if the device would overflow.
func (d *Device) Put(p ioev.Proc, name string, size int64) error {
	op, err := d.SubmitPut(ioev.Start(p), name, size)
	if err != nil {
		return err
	}
	ioev.Await(p, op)
	return nil
}

// SubmitPut issues a write command after dep without parking, returning the
// completion token. The blob is recorded immediately (model state is
// instantaneous; only time is simulated).
func (d *Device) SubmitPut(dep ioev.Op, name string, size int64) (ioev.Op, error) {
	if size < 0 {
		return ioev.Op{}, fmt.Errorf("nvme: negative size %d", size)
	}
	old := d.blobs[name]
	next := d.used - old + size
	if next > d.spec.CapacityBytes {
		return ioev.Op{}, fmt.Errorf("nvme: %s full: %d + %d > %d", d.spec.Name, d.used, size-old, d.spec.CapacityBytes)
	}
	d.blobs[name] = size
	d.used = next
	_, end := d.queue.Reserve(dep.Time(), d.writeTime(size))
	return ioev.At(end), nil
}

// SubmitUpdate issues a partial write after dep without parking: the blob's
// accounted size becomes size, but only written bytes cross the device (an
// in-place append or range update, e.g. a container block flush). Fails
// (without advancing time) if the new size would overflow the device.
func (d *Device) SubmitUpdate(dep ioev.Op, name string, size, written int64) (ioev.Op, error) {
	if size < 0 || written < 0 {
		return ioev.Op{}, fmt.Errorf("nvme: negative size %d/%d", size, written)
	}
	old := d.blobs[name]
	next := d.used - old + size
	if next > d.spec.CapacityBytes {
		return ioev.Op{}, fmt.Errorf("nvme: %s full: %d + %d > %d", d.spec.Name, d.used, size-old, d.spec.CapacityBytes)
	}
	d.blobs[name] = size
	d.used = next
	_, end := d.queue.Reserve(dep.Time(), d.writeTime(written))
	return ioev.At(end), nil
}

// SubmitGet issues a read command after dep without parking, returning the
// blob size and the completion token.
func (d *Device) SubmitGet(dep ioev.Op, name string) (int64, ioev.Op, error) {
	size, ok := d.blobs[name]
	if !ok {
		return 0, ioev.Op{}, fmt.Errorf("nvme: blob %q not found", name)
	}
	_, end := d.queue.Reserve(dep.Time(), d.readTime(size))
	return size, ioev.At(end), nil
}

// DropAll clears the device — used by failure injection to model a node loss
// taking its local checkpoints with it.
func (d *Device) DropAll() {
	d.blobs = map[string]int64{}
	d.used = 0
}
