// Package runstore is the persistent, shared result store behind the
// scenario cache: a content-addressed on-disk map from canonical SHA-256
// compute keys to opaque result payloads, safe to share between concurrent
// processes. It is the disk layer under internal/sweep's in-process memo —
// repeated cbctl invocations, CI runs and a long-running `cbctl serve` all
// warm the same store, so re-running a sweep only pays for the points that
// never ran anywhere before.
//
// Three properties carry the design:
//
//   - Epoch scoping. Results are pure functions of their configuration only
//     for a fixed generation of the simulation code, so every store is opened
//     under an epoch string (derived by the caller from the experiment
//     registry's versions plus the kernel/model fingerprint — exp.CacheEpoch)
//     and entries live in an epoch-named subdirectory. A post-refactor run
//     opens a different epoch and can never be satisfied by stale bytes;
//     old epochs are inert files an operator can delete at will.
//
//   - Crash-safe writes. Put marshals a checksummed envelope into a temp file
//     in the store directory and renames it into place: readers see either
//     nothing or a complete entry, never a torn write, and two processes
//     racing to publish the same (deterministic) result both win.
//
//   - Corruption-tolerant reads. A truncated, undecodable, mis-keyed or
//     checksum-failing entry is a miss, never an error: the caller recomputes
//     and the next Put heals the entry. The store must never be able to turn
//     a cache into a liability.
//
// The store never persists failed computations — that policy lives in the
// caller (internal/sweep), which only Puts successful reports.
package runstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// entrySchema versions the on-disk envelope; a bump orphans old entries
// (they read as corrupt misses) without any migration machinery.
const entrySchema = 1

// entry is the on-disk envelope around one payload. The key echo and the
// payload checksum make every failure mode a detectable miss: a file renamed
// or copied under the wrong name fails the key check, bit rot or a torn
// write fails the sum or the JSON decode.
type entry struct {
	Schema  int             `json:"schema"`
	Key     string          `json:"key"`
	Sum     string          `json:"sum"`
	Payload json.RawMessage `json:"payload"`
}

// Store is one epoch's view of an on-disk result store. All methods are safe
// for concurrent use by any number of goroutines and processes.
type Store struct {
	dir   string // epoch-scoped directory the entries live in
	epoch string

	hits    atomic.Uint64
	misses  atomic.Uint64
	corrupt atomic.Uint64
	puts    atomic.Uint64
	putErrs atomic.Uint64
	getNs   atomic.Int64
	putNs   atomic.Int64
}

// Epoch canonically hashes the parts that define a code/profile generation
// into a short epoch string. Callers list everything whose change must
// invalidate stored results (registry versions, the model fingerprint).
func Epoch(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Open roots a store at dir under the given epoch, creating the directories
// as needed. The same dir can hold any number of epochs side by side.
func Open(dir, epoch string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("runstore: empty store directory")
	}
	if epoch == "" {
		return nil, fmt.Errorf("runstore: empty epoch")
	}
	d := filepath.Join(dir, epoch)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: open: %w", err)
	}
	return &Store{dir: d, epoch: epoch}, nil
}

// path fans entries out over 256 subdirectories by key prefix, so
// million-scenario grids do not pile every file into one directory.
func (s *Store) path(key [sha256.Size]byte) string {
	k := hex.EncodeToString(key[:])
	return filepath.Join(s.dir, k[:2], k+".json")
}

// Get returns the payload stored under key. Every failure — missing file,
// truncated or undecodable envelope, key echo mismatch, checksum mismatch —
// is reported as a plain miss (ok=false); corrupt entries additionally bump
// the corrupt counter. Get never returns an error: the caller's recompute
// path is the recovery path.
func (s *Store) Get(key [sha256.Size]byte) (payload []byte, ok bool) {
	start := time.Now()
	defer func() { s.getNs.Add(time.Since(start).Nanoseconds()) }()
	b, err := os.ReadFile(s.path(key))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil || e.Schema != entrySchema || e.Key != hex.EncodeToString(key[:]) {
		s.corrupt.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	sum := sha256.Sum256(e.Payload)
	if e.Sum != hex.EncodeToString(sum[:]) {
		s.corrupt.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return e.Payload, true
}

// Put publishes payload — which must be valid JSON, it is embedded raw in
// the envelope — under key with write-then-rename atomicity: readers in this
// or any other process see the old entry (or none) until the rename, then
// the complete new one. Put errors are counted and returned, but the caller
// treats them as non-fatal — a store that cannot be written degrades to the
// in-process cache, it does not fail runs.
func (s *Store) Put(key [sha256.Size]byte, payload []byte) error {
	start := time.Now()
	defer func() { s.putNs.Add(time.Since(start).Nanoseconds()) }()
	err := s.put(key, payload)
	if err != nil {
		s.putErrs.Add(1)
		return fmt.Errorf("runstore: put: %w", err)
	}
	s.puts.Add(1)
	return nil
}

func (s *Store) put(key [sha256.Size]byte, payload []byte) error {
	sum := sha256.Sum256(payload)
	b, err := json.Marshal(entry{
		Schema:  entrySchema,
		Key:     hex.EncodeToString(key[:]),
		Sum:     hex.EncodeToString(sum[:]),
		Payload: payload,
	})
	if err != nil {
		return err
	}
	dst := s.path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	// The temp file lives next to the destination so the rename stays within
	// one filesystem (and therefore atomic).
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".put-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// MarkCorrupt reclassifies the most recent hit as a corrupt miss. The caller
// decodes payloads it got from Get; when that decode fails (an entry written
// by incompatible code that slipped inside one epoch), it reports the entry
// here so the counters match what actually happened: a recompute.
func (s *Store) MarkCorrupt() {
	s.hits.Add(^uint64(0))
	s.misses.Add(1)
	s.corrupt.Add(1)
}

// Stats is a point-in-time snapshot of the store's counters, surfaced
// through the -stats flags and the serve /statsz endpoint.
type Stats struct {
	Hits    uint64
	Misses  uint64
	Corrupt uint64
	Puts    uint64
	PutErrs uint64
	GetNs   int64
	PutNs   int64
	Epoch   string
}

// String renders the counters in the -stats line format.
func (st Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d corrupt=%d puts=%d put_errs=%d get_ms=%.1f put_ms=%.1f epoch=%s",
		st.Hits, st.Misses, st.Corrupt, st.Puts, st.PutErrs,
		float64(st.GetNs)/1e6, float64(st.PutNs)/1e6, st.Epoch)
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Corrupt: s.corrupt.Load(),
		Puts:    s.puts.Load(),
		PutErrs: s.putErrs.Load(),
		GetNs:   s.getNs.Load(),
		PutNs:   s.putNs.Load(),
		Epoch:   s.epoch,
	}
}
