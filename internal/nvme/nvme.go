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
// Every command is issued in submission form: a Submit* method takes an
// ioev.Op dependency and returns the completion token without parking, and
// a rank that must wait parks once on it with ioev.Await. The device
// carries no mutex — like the rest of the I/O stack it relies on the
// cooperative kernel for serialisation: exactly one rank (or baton-holding
// callback) runs at a time, and every method runs entirely within one turn.
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

// SubmitPut stores (or overwrites) a named blob of the given size, issuing
// the write command after dep without parking, and returns the completion
// token. The blob is recorded immediately (model state is instantaneous;
// only time is simulated). Fails, reserving no device time, if the device
// would overflow.
func (d *Device) SubmitPut(dep ioev.Op, name string, size int64) (ioev.Op, error) {
	return d.SubmitUpdate(dep, name, size, size)
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

// SubmitRead issues a read command for size bytes of a named blob after dep
// without parking, returning the completion token. Only the requested bytes
// are priced, so a range read of a large blob costs its range, not the blob.
func (d *Device) SubmitRead(dep ioev.Op, name string, size int64) (ioev.Op, error) {
	blob, ok := d.blobs[name]
	if !ok {
		return ioev.Op{}, fmt.Errorf("nvme: blob %q not found", name)
	}
	if size < 0 || size > blob {
		return ioev.Op{}, fmt.Errorf("nvme: read of %d bytes from blob %q (%d)", size, name, blob)
	}
	_, end := d.queue.Reserve(dep.Time(), d.readTime(size))
	return ioev.At(end), nil
}

// DropAll clears the device — used by failure injection to model a node loss
// taking its local checkpoints with it.
func (d *Device) DropAll() {
	d.blobs = map[string]int64{}
	d.used = 0
}
