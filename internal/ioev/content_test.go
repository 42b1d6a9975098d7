package ioev

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// flatFile is the oracle for Content: the grow-by-append byte slice the
// storage models used before chunked content.
type flatFile []byte

func (f *flatFile) writeAt(data []byte, off int64) {
	if grow := off + int64(len(data)) - int64(len(*f)); grow > 0 {
		*f = append(*f, make([]byte, grow)...)
	}
	copy((*f)[off:], data)
}

// contentOp is one operation of a differential run: a write of n bytes
// (filled from fill) or, when read is set, a read of n bytes, at off.
type contentOp struct {
	read bool
	off  int64
	n    int64
	fill byte
}

// applyOps drives c and the flat oracle through ops and fails on the first
// divergence in size or in any byte read back. Reads outside [0, Size] are
// clipped to the file, as every storage caller checks bounds first.
func applyOps(t *testing.T, c *Content, ops []contentOp) {
	t.Helper()
	var want flatFile
	for i, op := range ops {
		if !op.read {
			data := bytes.Repeat([]byte{op.fill}, int(op.n))
			c.WriteAt(data, op.off)
			want.writeAt(data, op.off)
		} else {
			off := min(op.off, int64(len(want)))
			n := min(op.n, int64(len(want))-off)
			got := c.ReadAt(off, n)
			if !bytes.Equal(got, want[off:off+n]) {
				t.Fatalf("op %d: ReadAt(%d, %d) differs from the flat oracle", i, off, n)
			}
		}
		if c.Size() != int64(len(want)) {
			t.Fatalf("op %d (%+v): Size = %d, oracle %d", i, op, c.Size(), len(want))
		}
	}
	if got := c.ReadAt(0, c.Size()); !bytes.Equal(got, want) {
		t.Fatalf("final content differs from the flat oracle (%d bytes)", len(want))
	}
}

// nearBoundary returns an offset within a few bytes of a chunk boundary, in
// the middle of a chunk, or at zero — the cases chunk arithmetic gets wrong.
func nearBoundary(rng *rand.Rand, chunks int) int64 {
	base := int64(rng.Intn(chunks+1)) * contentChunk
	switch rng.Intn(4) {
	case 0:
		return max(base-int64(rng.Intn(8)), 0)
	case 1:
		return base + int64(rng.Intn(8))
	case 2:
		return base + contentChunk/2 + int64(rng.Intn(1000))
	default:
		return int64(rng.Intn(chunks * contentChunk))
	}
}

func TestContentMatchesFlatOracle(t *testing.T) {
	seeds, opsPerSeed := 40, 60
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]contentOp, opsPerSeed)
		for i := range ops {
			op := contentOp{off: nearBoundary(rng, 4), fill: byte(1 + rng.Intn(255))}
			switch rng.Intn(5) {
			case 0:
				op.n = 0 // zero-length: past EOF it still extends the file
			case 1:
				op.n = int64(1 + rng.Intn(16))
			case 2:
				op.n = contentChunk + int64(rng.Intn(3)-1) // a chunk, give or take a byte
			default:
				op.n = int64(rng.Intn(2 * contentChunk))
			}
			op.read = rng.Intn(3) == 0
			ops[i] = op
		}
		t.Run("", func(t *testing.T) { applyOps(t, &Content{}, ops) })
	}
}

func TestContentEdgeCases(t *testing.T) {
	cases := map[string][]contentOp{
		"zero-length write past EOF": {{off: 3 * contentChunk, n: 0}, {read: true, off: 0, n: 3 * contentChunk}},
		"hole then tail": {
			{off: 2*contentChunk + 5, n: 10, fill: 7},
			{read: true, off: contentChunk - 3, n: contentChunk + 20},
		},
		"write across two boundaries": {
			{off: contentChunk - 1, n: contentChunk + 2, fill: 9},
			{read: true, off: contentChunk - 2, n: contentChunk + 4},
		},
		"overwrite inside then past EOF": {
			{off: 0, n: 100, fill: 1},
			{off: 50, n: 100, fill: 2},
			{off: 10, n: 5, fill: 3},
			{read: true, off: 0, n: 150},
		},
		"last byte": {
			{off: contentChunk, n: 1, fill: 4},
			{read: true, off: contentChunk, n: 1},
			{read: true, off: contentChunk + 1, n: 0},
		},
		"two writes inside one chunk": {
			{off: 10, n: 10, fill: 5},
			{off: 1000, n: 10, fill: 6},
			{read: true, off: 0, n: 1010},
		},
	}
	for name, ops := range cases {
		t.Run(name, func(t *testing.T) { applyOps(t, &Content{}, ops) })
	}
}

// TestContentChunksNeverMove pins the invariant the type exists for:
// growing a file, and overwriting within it, never reallocates a chunk that
// holds bytes, so no write copies what the file already stores.
func TestContentChunksNeverMove(t *testing.T) {
	var c Content
	c.WriteAt([]byte("head"), 0)
	first := &c.chunks[0][0]
	c.WriteAt(bytes.Repeat([]byte{1}, contentChunk), 100) // finishes chunk 0, starts chunk 1
	c.WriteAt([]byte("far"), 9*contentChunk)              // grows the chunk table
	c.WriteAt(bytes.Repeat([]byte{2}, 3000), 10)          // overwrites inside chunk 0
	if got := &c.chunks[0][0]; got != first {
		t.Fatal("chunk 0's backing array moved after later writes")
	}
	for i, ch := range c.chunks {
		if ch != nil && len(ch) != contentChunk {
			t.Fatalf("chunk %d holds %d bytes, want %d", i, len(ch), contentChunk)
		}
	}
}

func TestContentReadReturnsCopy(t *testing.T) {
	var c Content
	c.WriteAt([]byte("abc"), 0)
	got := c.ReadAt(0, 3)
	got[0] = 'X'
	if string(c.ReadAt(0, 3)) != "abc" {
		t.Fatal("mutating a ReadAt result changed the stored content")
	}
}

// FuzzContent decodes its input as a sequence of 6-byte operations — kind,
// chunk index, signed offset from that chunk's start, length, fill — so the
// fuzzer explores writes and reads around chunk boundaries against the flat
// oracle.
func FuzzContent(f *testing.F) {
	f.Add([]byte{0, 1, 0xff, 0x10, 0x00, 7, 1, 0, 0xf0, 0x20, 0x00, 0})
	f.Add([]byte{2, 0, 0x00, 0xff, 0xff, 1, 0, 3, 0x00, 0x00, 0x00, 2, 1, 0, 0x00, 0xff, 0xff, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var ops []contentOp
		for ; len(raw) >= 6 && len(ops) < 64; raw = raw[6:] {
			op := contentOp{
				read: raw[0]&1 == 1,
				off:  int64(raw[1]%4)*contentChunk + int64(int8(raw[2]))*16,
				n:    int64(binary.BigEndian.Uint16(raw[3:5])),
				fill: raw[5],
			}
			if raw[0]&2 != 0 {
				op.n *= 16 // up to 1 MiB: spans whole chunks
			}
			op.off = max(op.off, 0)
			ops = append(ops, op)
		}
		applyOps(t, &Content{}, ops)
	})
}
