// Package sion reproduces the role of SIONlib in the DEEP-ER software stack
// (§III-C of the paper): a concentration layer that lets thousands of tasks
// perform task-local I/O while the parallel file system only ever sees one
// (or a few) large, block-aligned container files.
//
// The container format is real: a binary header, a data region of fixed-size
// blocks handed out to task streams as they grow, and a block table appended
// at close, with the header patched to point at it. Containers written here
// are parsed back by SubmitOpenRead and verified byte-for-byte in tests;
// malformed containers are rejected with errors, never panics (see the fuzz
// targets).
//
// SIONlib also bridges I/O and resiliency in DEEP-ER: SubmitBuddy copies a
// task's checkpoint into the NVMe of a companion node (buddy
// checkpointing), which package scr builds on.
//
// All container I/O is in submission form: each Submit* call threads an
// ioev.Op dependency and returns a completion token without parking, so
// composed paths (SCR overlapping a container write with a buddy copy)
// join several completions, and a rank that must wait parks once on the
// result with ioev.Await. The Writer holds no mutex: under the cooperative
// kernel exactly one rank runs at a time and every method — including the
// shared-container SubmitWriteTask fan-in — executes entirely within the
// calling rank's turn, the same serialisation argument as scr.
package sion

import (
	"encoding/binary"
	"fmt"

	"clusterbooster/internal/ioev"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// Backend abstracts the file system a container lives on, in submission
// form: operations are issued against an ioev.Op dependency and return a
// completion token without parking. *beegfs.FS satisfies it; DeviceBackend
// adapts a node-local NVMe device.
//
// SubmitWrite reads data only before it returns and never retains it: the
// writer flushes full blocks straight from the caller's buffer and reuses
// its own tail buffer, so an implementation that keeps bytes copies them.
// No Submit method parks, so SubmitWriteTask's caller gets the same
// guarantee: its buffer is read only before the call returns.
type Backend interface {
	SubmitCreate(dep ioev.Op, path string, node *machine.Node) ioev.Op
	SubmitWrite(dep ioev.Op, path string, offset int64, data []byte, node *machine.Node) (ioev.Op, error)
	SubmitRead(dep ioev.Op, path string, offset, size int64, node *machine.Node) ([]byte, ioev.Op, error)
	Size(path string) (int64, error)
}

const (
	magic      = uint32(0x53494f4e) // "SION"
	version    = uint32(2)
	headerSize = int64(64)

	// maxTasks bounds the task count SubmitOpenRead accepts: far above any
	// real container here, small enough that a hostile header cannot coerce
	// a huge allocation.
	maxTasks = 1 << 20
)

// Writer is an open container being written by ntasks task-local streams.
type Writer struct {
	backend   Backend
	path      string
	ntasks    int
	blockSize int64

	nextOff int64     // next free block offset
	blocks  [][]block // per task: ordered block list
	buf     [][]byte  // per task: current partial block
	flushed []vclock.Time
	closed  bool
}

type block struct {
	Off  int64
	Used int64
}

// SubmitCreate starts a new container for ntasks streams with the given
// block size (the alignment unit; SIONlib aligns to file-system blocks),
// issuing the backend's create after dep without parking. It returns the
// writer and the metadata completion token.
func SubmitCreate(b Backend, path string, ntasks int, blockSize int64, node *machine.Node, dep ioev.Op) (*Writer, ioev.Op, error) {
	if ntasks <= 0 || blockSize <= 0 {
		return nil, ioev.Op{}, fmt.Errorf("sion: invalid container geometry (%d tasks, %d block)", ntasks, blockSize)
	}
	done := b.SubmitCreate(dep, path, node)
	w := &Writer{
		backend:   b,
		path:      path,
		ntasks:    ntasks,
		blockSize: blockSize,
		nextOff:   headerSize,
		blocks:    make([][]block, ntasks),
		buf:       make([][]byte, ntasks),
		flushed:   make([]vclock.Time, ntasks),
	}
	return w, done, nil
}

// SubmitWriteTask appends data to one task's logical stream after dep
// without parking: every full block flushes concurrently from the
// dependency instant, and the returned token joins the flushes this call
// issued (dep itself if the append stayed buffered). data is read only
// before the call returns and is never retained: the backend copies
// flushed blocks and the writer copies the tail, so the buffer may be
// refilled, e.g. by another rank, while the caller waits on the token.
func (w *Writer) SubmitWriteTask(dep ioev.Op, task int, data []byte, node *machine.Node) (ioev.Op, error) {
	if task < 0 || task >= w.ntasks {
		return ioev.Op{}, fmt.Errorf("sion: task %d out of range [0,%d)", task, w.ntasks)
	}
	if w.closed {
		return ioev.Op{}, fmt.Errorf("sion: write to closed container %s", w.path)
	}
	// Top up the buffered partial block first, then flush every further
	// full block straight from data (the Backend contract forbids keeping
	// it); only the tail is copied into the task's buffer.
	done := dep
	buf := w.buf[task]
	for int64(len(buf)+len(data)) >= w.blockSize {
		var blk []byte
		if len(buf) > 0 {
			n := int(w.blockSize) - len(buf)
			blk = append(buf, data[:n]...)
			buf, data = blk[:0], data[n:]
		} else {
			blk, data = data[:w.blockSize], data[w.blockSize:]
		}
		off := w.nextOff
		w.nextOff += w.blockSize
		w.blocks[task] = append(w.blocks[task], block{Off: off, Used: w.blockSize})
		t, err := w.backend.SubmitWrite(dep, w.path, off, blk, node)
		if err != nil {
			return ioev.Op{}, fmt.Errorf("sion: flush task %d: %w", task, err)
		}
		ioev.AddContainerBytes(w.blockSize)
		done = ioev.After(done, t)
	}
	w.buf[task] = append(buf, data...)
	w.flushed[task] = vclock.Max(w.flushed[task], done.Time())
	return done, nil
}

// SubmitClose seals the container after dep without parking: partial blocks
// flush concurrently from the join of dep and every stream's last flush,
// then the block table and patched header commit sequentially. The returned
// token is the whole container's completion. It is called once by the I/O
// root task after a barrier, so dep already covers the other tasks' writes
// (any straggling flush is joined anyway).
func (w *Writer) SubmitClose(dep ioev.Op, node *machine.Node) (ioev.Op, error) {
	if w.closed {
		return ioev.Op{}, fmt.Errorf("sion: double close of %s", w.path)
	}
	w.closed = true
	type pend struct {
		off  int64
		data []byte
	}
	var flushes []pend
	for task := 0; task < w.ntasks; task++ {
		if len(w.buf[task]) == 0 {
			continue
		}
		data := w.buf[task]
		w.buf[task] = nil
		off := w.nextOff
		w.nextOff += w.blockSize // full block reserved: alignment
		w.blocks[task] = append(w.blocks[task], block{Off: off, Used: int64(len(data))})
		flushes = append(flushes, pend{off: off, data: data})
	}
	tableOff := w.nextOff
	table := w.encodeTable()
	header := w.encodeHeader(tableOff)
	for _, t := range w.flushed {
		dep = ioev.After(dep, ioev.At(t))
	}

	done := dep
	for _, f := range flushes {
		t, err := w.backend.SubmitWrite(dep, w.path, f.off, f.data, node)
		if err != nil {
			return ioev.Op{}, fmt.Errorf("sion: close flush: %w", err)
		}
		ioev.AddContainerBytes(int64(len(f.data)))
		done = ioev.After(done, t)
	}
	t, err := w.backend.SubmitWrite(done, w.path, tableOff, table, node)
	if err != nil {
		return ioev.Op{}, fmt.Errorf("sion: block table: %w", err)
	}
	done = ioev.After(done, t)
	t, err = w.backend.SubmitWrite(done, w.path, 0, header, node)
	if err != nil {
		return ioev.Op{}, fmt.Errorf("sion: header: %w", err)
	}
	ioev.AddContainerBytes(int64(len(table)) + headerSize)
	return ioev.After(done, t), nil
}

func (w *Writer) encodeHeader(tableOff int64) []byte {
	h := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(h[0:], magic)
	binary.LittleEndian.PutUint32(h[4:], version)
	binary.LittleEndian.PutUint64(h[8:], uint64(w.ntasks))
	binary.LittleEndian.PutUint64(h[16:], uint64(w.blockSize))
	binary.LittleEndian.PutUint64(h[24:], uint64(tableOff))
	return h
}

func (w *Writer) encodeTable() []byte {
	var out []byte
	var scratch [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(scratch[:], uint64(v))
		out = append(out, scratch[:]...)
	}
	for task := 0; task < w.ntasks; task++ {
		put(int64(len(w.blocks[task])))
		for _, b := range w.blocks[task] {
			put(b.Off)
			put(b.Used)
		}
	}
	return out
}

// Reader is an open container for reading task streams back.
type Reader struct {
	backend   Backend
	path      string
	ntasks    int
	blockSize int64
	blocks    [][]block
}

// SubmitOpenRead parses a container's metadata from the backend after dep
// without parking: the header read chains into the table read, and the
// returned token covers both. Malformed containers are rejected with an
// error.
func SubmitOpenRead(b Backend, path string, node *machine.Node, dep ioev.Op) (*Reader, ioev.Op, error) {
	size, err := b.Size(path)
	if err != nil {
		return nil, ioev.Op{}, err
	}
	if size < headerSize {
		return nil, ioev.Op{}, fmt.Errorf("sion: %s too short (%d bytes) for a SION container", path, size)
	}
	h, t, err := b.SubmitRead(dep, path, 0, headerSize, node)
	if err != nil {
		return nil, ioev.Op{}, fmt.Errorf("sion: header read: %w", err)
	}
	if int64(len(h)) < headerSize {
		return nil, ioev.Op{}, fmt.Errorf("sion: %s: truncated header (%d bytes)", path, len(h))
	}
	if binary.LittleEndian.Uint32(h[0:]) != magic {
		return nil, ioev.Op{}, fmt.Errorf("sion: %s is not a SION container", path)
	}
	if v := binary.LittleEndian.Uint32(h[4:]); v != version {
		return nil, ioev.Op{}, fmt.Errorf("sion: %s has unsupported version %d", path, v)
	}
	ntasks := int64(binary.LittleEndian.Uint64(h[8:]))
	blockSize := int64(binary.LittleEndian.Uint64(h[16:]))
	tableOff := int64(binary.LittleEndian.Uint64(h[24:]))
	if ntasks <= 0 || ntasks > maxTasks {
		return nil, ioev.Op{}, fmt.Errorf("sion: %s: implausible task count %d", path, ntasks)
	}
	if blockSize <= 0 {
		return nil, ioev.Op{}, fmt.Errorf("sion: %s: invalid block size %d", path, blockSize)
	}
	if tableOff < headerSize || tableOff > size {
		return nil, ioev.Op{}, fmt.Errorf("sion: %s: block table offset %d outside file [%d,%d]", path, tableOff, headerSize, size)
	}
	r := &Reader{backend: b, path: path, ntasks: int(ntasks), blockSize: blockSize}
	raw, t2, err := b.SubmitRead(t, path, tableOff, size-tableOff, node)
	if err != nil {
		return nil, ioev.Op{}, fmt.Errorf("sion: table read: %w", err)
	}
	if err := r.parseTable(raw, tableOff); err != nil {
		return nil, ioev.Op{}, fmt.Errorf("sion: %s: %w", path, err)
	}
	return r, t2, nil
}

// parseTable decodes the per-task block lists, validating every entry
// against the container geometry so corrupt tables fail instead of
// panicking or describing blocks outside the data region.
func (r *Reader) parseTable(raw []byte, tableOff int64) error {
	r.blocks = make([][]block, r.ntasks)
	pos := 0
	next := func() (int64, error) {
		if pos+8 > len(raw) {
			return 0, fmt.Errorf("truncated block table at byte %d", pos)
		}
		v := int64(binary.LittleEndian.Uint64(raw[pos:]))
		pos += 8
		return v, nil
	}
	for task := 0; task < r.ntasks; task++ {
		n, err := next()
		if err != nil {
			return err
		}
		if n < 0 || n > int64(len(raw))/16 {
			return fmt.Errorf("task %d: implausible block count %d", task, n)
		}
		for i := int64(0); i < n; i++ {
			off, err := next()
			if err != nil {
				return err
			}
			used, err := next()
			if err != nil {
				return err
			}
			if off < headerSize || used < 0 || used > r.blockSize || off+r.blockSize > tableOff {
				return fmt.Errorf("task %d block %d: [%d,+%d) outside data region [%d,%d)", task, i, off, used, headerSize, tableOff)
			}
			r.blocks[task] = append(r.blocks[task], block{Off: off, Used: used})
		}
	}
	return nil
}

// TaskSize returns the logical size of one task's stream.
func (r *Reader) TaskSize(task int) int64 {
	var sum int64
	for _, b := range r.blocks[task] {
		sum += b.Used
	}
	return sum
}

// SubmitReadTask reads one task's full logical stream after dep without
// parking: all blocks are fetched concurrently from the dependency instant
// and the returned token joins them.
func (r *Reader) SubmitReadTask(dep ioev.Op, task int, node *machine.Node) ([]byte, ioev.Op, error) {
	if task < 0 || task >= r.ntasks {
		return nil, ioev.Op{}, fmt.Errorf("sion: task %d out of range [0,%d)", task, r.ntasks)
	}
	out := make([]byte, 0, r.TaskSize(task))
	done := dep
	for _, b := range r.blocks[task] {
		data, t, err := r.backend.SubmitRead(dep, r.path, b.Off, b.Used, node)
		if err != nil {
			return nil, ioev.Op{}, fmt.Errorf("sion: task %d block at %d: %w", task, b.Off, err)
		}
		out = append(out, data...)
		done = ioev.After(done, t)
	}
	return out, done, nil
}
