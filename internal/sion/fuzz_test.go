package sion

import (
	"bytes"
	"encoding/binary"
	"testing"

	"clusterbooster/internal/beegfs"
	"clusterbooster/internal/fabric"
	"clusterbooster/internal/machine"
)

// FuzzSIONRoundTrip writes N task streams into a container, seals it, and
// re-opens it: every stream must come back byte-for-byte. The geometry
// (task count, block size) fuzzes alongside the payloads so block chaining,
// partial blocks and empty streams are all on the path.
func FuzzSIONRoundTrip(f *testing.F) {
	f.Add([]byte("alpha"), []byte(""), []byte("gamma-stream"), uint16(64))
	f.Add([]byte{0}, bytes.Repeat([]byte{0xFF}, 500), []byte("z"), uint16(17))
	f.Add(bytes.Repeat([]byte("block"), 200), []byte("b"), []byte("c"), uint16(128))
	f.Fuzz(func(t *testing.T, p0, p1, p2 []byte, bs uint16) {
		blockSize := int64(bs%1024) + 1
		sys := machine.New(1, 0)
		net := fabric.New(sys)
		b := beegfs.New(net)
		n := sys.Node(0)

		w, _, err := SubmitCreate(b, "/fuzz.sion", 3, blockSize, n, at0)
		if err != nil {
			t.Fatal(err)
		}
		payloads := [][]byte{p0, p1, p2}
		for task, data := range payloads {
			if _, err := w.SubmitWriteTask(at0, task, data, n); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.SubmitClose(at0, n); err != nil {
			t.Fatal(err)
		}
		r, _, err := SubmitOpenRead(b, "/fuzz.sion", n, at0)
		if err != nil {
			t.Fatalf("reopening own container: %v", err)
		}
		for task, want := range payloads {
			if got := r.TaskSize(task); got != int64(len(want)) {
				t.Fatalf("task %d size = %d, want %d", task, got, len(want))
			}
			got, _, err := r.SubmitReadTask(at0, task, n)
			if err != nil {
				t.Fatalf("task %d read: %v", task, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("task %d: %d bytes differ from %d written", task, len(got), len(want))
			}
		}
	})
}

// fuzzContainerBytes builds a small valid container and returns its raw
// on-disk bytes — the interesting seed for header/table mutation.
func fuzzContainerBytes(f *testing.F) []byte {
	f.Helper()
	sys := machine.New(1, 0)
	net := fabric.New(sys)
	b := beegfs.New(net)
	n := sys.Node(0)
	w, _, err := SubmitCreate(b, "/seed.sion", 2, 32, n, at0)
	if err != nil {
		f.Fatal(err)
	}
	w.SubmitWriteTask(at0, 0, []byte("seed stream zero"), n)
	w.SubmitWriteTask(at0, 1, bytes.Repeat([]byte("x"), 70), n)
	if _, err := w.SubmitClose(at0, n); err != nil {
		f.Fatal(err)
	}
	size, _ := b.Size("/seed.sion")
	raw, _, err := b.SubmitRead(at0, "/seed.sion", 0, size, n)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzSIONOpenRead feeds arbitrary bytes to the container parser:
// SubmitOpenRead must reject malformed headers and block tables with an
// error — never a panic — and anything it accepts must serve every task
// read without panicking.
func FuzzSIONOpenRead(f *testing.F) {
	valid := fuzzContainerBytes(f)
	f.Add(valid)
	f.Add(valid[:headerSize-1]) // truncated header
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{7}, 128)) // garbage, wrong magic

	badMagic := append([]byte(nil), valid...)
	badMagic[0] ^= 0xFF
	f.Add(badMagic)

	hugeTasks := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(hugeTasks[8:], 1<<40) // ntasks overflow
	f.Add(hugeTasks)

	wildTable := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(wildTable[24:], 1<<50) // tableOff past EOF
	f.Add(wildTable)

	f.Fuzz(func(t *testing.T, raw []byte) {
		sys := machine.New(1, 0)
		net := fabric.New(sys)
		b := beegfs.New(net)
		n := sys.Node(0)
		created := b.SubmitCreate(at0, "/in.sion", n)
		if len(raw) > 0 {
			if _, err := b.SubmitWrite(created, "/in.sion", 0, raw, n); err != nil {
				t.Skip() // over FS capacity: not a parser input
			}
		}
		r, _, err := SubmitOpenRead(b, "/in.sion", n, at0)
		if err != nil {
			return // rejected cleanly — the required behaviour for bad input
		}
		for task := 0; task < r.ntasks; task++ {
			if _, _, err := r.SubmitReadTask(at0, task, n); err != nil {
				return
			}
		}
	})
}
