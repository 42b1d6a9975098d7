// Package nam models the DEEP-ER network-attached memory: Hybrid Memory Cube
// devices behind a Xilinx Virtex 7 FPGA, directly attached to the EXTOLL
// fabric (§II-B of the paper, ref [6]). The defining property is that the
// memory is globally accessible through remote DMA without any CPU on the
// remote side — all access cost is the initiator's RDMA operation through the
// fabric.
//
// The prototype holds two devices of 2 GB each; checkpointing into the NAM is
// the use case studied in ref [6] and pinned by fig-io's nam_gain budget.
//
// Region access is timed in submission form: SubmitWrite issues the RDMA
// put against an ioev.Op dependency without parking, and the initiating
// rank parks on the returned token with ioev.Await. The device carries no
// mutex — the cooperative kernel serialises every allocation and access,
// the same argument as the rest of the I/O stack.
package nam

import (
	"fmt"

	"clusterbooster/internal/fabric"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/machine"
)

// DeviceCapacity is the per-device capacity of the prototype's NAM cards
// (2 GB, limited by then-current HMC technology).
const DeviceCapacity = 2 << 30

// Device is one NAM card on the fabric.
type Device struct {
	name     string
	capacity int64
	endpoint int
	net      *fabric.Network
	used     int64
	regions  map[string]*Region
}

// Region is an allocated range of NAM memory.
type Region struct {
	dev  *Device
	name string
	size int64
}

// New attaches a NAM device with the given capacity to the fabric.
func New(net *fabric.Network, name string, capacity int64) *Device {
	return &Device{
		name:     name,
		capacity: capacity,
		endpoint: net.AttachEndpoint(),
		net:      net,
		regions:  map[string]*Region{},
	}
}

// NewPrototypePair attaches the two 2 GB NAM devices of the DEEP-ER
// prototype.
func NewPrototypePair(net *fabric.Network) [2]*Device {
	return [2]*Device{
		New(net, "nam0", DeviceCapacity),
		New(net, "nam1", DeviceCapacity),
	}
}

// Alloc reserves a named region of the given size.
func (d *Device) Alloc(name string, size int64) (*Region, error) {
	if size <= 0 {
		return nil, fmt.Errorf("nam: invalid region size %d", size)
	}
	if _, ok := d.regions[name]; ok {
		return nil, fmt.Errorf("nam: region %q already allocated", name)
	}
	if d.used+size > d.capacity {
		return nil, fmt.Errorf("nam: %s full: %d + %d > %d", d.name, d.used, size, d.capacity)
	}
	r := &Region{dev: d, name: name, size: size}
	d.regions[name] = r
	d.used += size
	return r, nil
}

// SubmitWrite RDMA-puts size bytes into the region from the initiator
// node, issued after dep without parking. No CPU acts on the NAM side.
func (r *Region) SubmitWrite(dep ioev.Op, initiator *machine.Node, size int64) (ioev.Op, error) {
	if size < 0 || size > r.size {
		return ioev.Op{}, fmt.Errorf("nam: write of %d bytes exceeds region %q (%d)", size, r.name, r.size)
	}
	return ioev.At(r.dev.net.RDMAWrite(initiator, r.dev.endpoint, int(size), dep.Time())), nil
}
