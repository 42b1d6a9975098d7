package ioev

// contentChunk is the granule a Content stores file bytes in. It matches
// the BeeGFS stripe chunk of the prototype deployment, so a stripe-aligned
// write fills whole chunks; nothing depends on the two being equal.
const contentChunk = 512 << 10

// Content is the byte store behind a simulated file: the storage models
// (beegfs files, SION device-backend files) keep real content so containers
// and checkpoints read back bit-for-bit. Bytes live in fixed-size chunks. A
// chunk is allocated whole, zeroed, at the first write that touches it and
// is never reallocated, so growing a file never copies the bytes it already
// holds. A range never written reads as zeros. The zero Content is an empty
// file.
type Content struct {
	chunks [][]byte // chunk i holds [i*contentChunk, (i+1)*contentChunk); nil until written
	size   int64
}

// Size returns the file's length: the end of the furthest write.
func (c *Content) Size() int64 { return c.size }

// WriteAt stores data at off, extending the file when the write ends past
// it; the gap between the old end and off reads as zeros. A zero-length
// write past the end still extends the file. Callers reject a negative off.
func (c *Content) WriteAt(data []byte, off int64) {
	if end := off + int64(len(data)); end > c.size {
		c.size = end
	}
	for len(data) > 0 {
		i, within := off/contentChunk, int(off%contentChunk)
		for int64(len(c.chunks)) <= i {
			c.chunks = append(c.chunks, nil)
		}
		if c.chunks[i] == nil {
			c.chunks[i] = make([]byte, contentChunk)
		}
		n := copy(c.chunks[i][within:], data)
		data = data[n:]
		off += int64(n)
	}
}

// ReadAt returns a fresh copy of the n bytes at off. Callers check that
// [off, off+n) lies within [0, Size()].
func (c *Content) ReadAt(off, n int64) []byte {
	out := make([]byte, n)
	for pos := 0; pos < len(out); {
		i, within := off/contentChunk, off%contentChunk
		step := min(int64(len(out)-pos), contentChunk-within)
		if i < int64(len(c.chunks)) && c.chunks[i] != nil {
			copy(out[pos:pos+int(step)], c.chunks[i][within:])
		}
		pos += int(step)
		off += step
	}
	return out
}
