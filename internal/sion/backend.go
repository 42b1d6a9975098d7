package sion

import (
	"fmt"

	"clusterbooster/internal/fabric"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/nvme"
)

// DeviceBackend adapts a node-local NVMe device to the Backend interface, so
// SION containers (e.g. local checkpoints) can live on node-local storage.
// Content is kept in an ioev.Content per file, alongside the device's
// capacity accounting. Like the device itself it is mutex-free: the
// cooperative kernel serialises access.
type DeviceBackend struct {
	dev   *nvme.Device
	files map[string]*ioev.Content
}

// NewDeviceBackend wraps an NVMe device.
func NewDeviceBackend(dev *nvme.Device) *DeviceBackend {
	return &DeviceBackend{dev: dev, files: map[string]*ioev.Content{}}
}

// SubmitCreate makes an empty file on the device after dep; the node is
// irrelevant for node-local storage.
func (d *DeviceBackend) SubmitCreate(dep ioev.Op, path string, node *machine.Node) ioev.Op {
	d.files[path] = &ioev.Content{}
	op, err := d.dev.SubmitPut(dep, "file:"+path, 0)
	if err != nil {
		return dep
	}
	return op
}

// SubmitWrite stores data at offset after dep, growing the file; the cost
// is the device write of the updated range.
func (d *DeviceBackend) SubmitWrite(dep ioev.Op, path string, offset int64, data []byte, node *machine.Node) (ioev.Op, error) {
	f, ok := d.files[path]
	if !ok {
		return ioev.Op{}, fmt.Errorf("sion: device file %s does not exist", path)
	}
	if offset < 0 {
		return ioev.Op{}, fmt.Errorf("sion: device write at negative offset %d of %s", offset, path)
	}
	f.WriteAt(data, offset)
	// Price only the bytes crossing the device: a block flush is an
	// in-place range write, not a rewrite of the whole container.
	op, err := d.dev.SubmitUpdate(dep, "file:"+path, f.Size(), int64(len(data)))
	if err != nil {
		return ioev.Op{}, fmt.Errorf("sion: device write: %w", err)
	}
	return op, nil
}

// SubmitRead returns size bytes at offset after dep; the cost is a device
// read of those bytes only, not of the whole file.
func (d *DeviceBackend) SubmitRead(dep ioev.Op, path string, offset, size int64, node *machine.Node) ([]byte, ioev.Op, error) {
	f, ok := d.files[path]
	if !ok || offset < 0 || size < 0 || offset+size > f.Size() {
		return nil, ioev.Op{}, fmt.Errorf("sion: device read [%d,%d) of %s invalid", offset, offset+size, path)
	}
	out := f.ReadAt(offset, size)
	op, err := d.dev.SubmitRead(dep, "file:"+path, size)
	if err != nil {
		return nil, ioev.Op{}, err
	}
	return out, op, nil
}

// Size returns the file's size.
func (d *DeviceBackend) Size(path string) (int64, error) {
	f, ok := d.files[path]
	if !ok {
		return 0, fmt.Errorf("sion: device file %s does not exist", path)
	}
	return f.Size(), nil
}

// SubmitBuddy copies a task's size-byte local checkpoint into the NVMe of a
// companion node — the SIONlib buddy-checkpointing path of §III-C — issued
// after dep without parking: the transfer crosses the fabric from the owner
// to the buddy and then commits to the buddy's device queue at its arrival
// instant — all priced during the owner's turn, so the redundant copy
// overlaps whatever else the owner submits. The device model keeps sizes,
// not bytes, so only the size is passed. The returned token is when the
// copy is safe.
func SubmitBuddy(net *fabric.Network, owner, buddy *machine.Node, buddyDev *nvme.Device, name string, size int64, dep ioev.Op) (ioev.Op, error) {
	if owner.ID == buddy.ID {
		return ioev.Op{}, fmt.Errorf("sion: buddy of %s is itself", owner.Name())
	}
	// Fabric transfer owner → buddy (rendezvous bulk path).
	_, arrival := net.Rendezvous(owner, buddy, int(size), dep.Time(), dep.Time())
	op, err := buddyDev.SubmitPut(ioev.At(arrival), name, size)
	if err != nil {
		return ioev.Op{}, fmt.Errorf("sion: buddy store on %s: %w", buddy.Name(), err)
	}
	ioev.CountBuddyCopy()
	return op, nil
}
