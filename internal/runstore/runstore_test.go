package runstore

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testKey(b byte) [sha256.Size]byte {
	var k [sha256.Size]byte
	k[0] = b
	return k
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open("", "e"); err == nil {
		t.Fatal("Open with empty dir must fail")
	}
	if _, err := Open(t.TempDir(), ""); err == nil {
		t.Fatal("Open with empty epoch must fail")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir(), "e1")
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(7)
	payload := []byte(`{"makespan_s":1.25}`)

	if _, ok := st.Get(key); ok {
		t.Fatal("Get on empty store must miss")
	}
	if err := st.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get(key)
	if !ok {
		t.Fatal("Get after Put must hit")
	}
	if string(got) != string(payload) {
		t.Fatalf("payload round-trip: got %q want %q", got, payload)
	}
	s := st.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Puts != 1 || s.Corrupt != 0 || s.PutErrs != 0 {
		t.Fatalf("stats %+v: want hits=1 misses=1 puts=1", s)
	}
	if !strings.Contains(s.String(), "hits=1 misses=1 corrupt=0 puts=1") {
		t.Fatalf("stats string %q", s.String())
	}
}

// entryFile locates the single entry file the store wrote.
func entryFile(t *testing.T, st *Store) string {
	t.Helper()
	var found string
	err := filepath.WalkDir(st.dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(p, ".json") {
			found = p
		}
		return nil
	})
	if err != nil || found == "" {
		t.Fatalf("no entry file under %s (err %v)", st.dir, err)
	}
	return found
}

// TestCorruptionTolerance: a truncated or garbage entry is a miss (never an
// error), counted as corrupt, and a later Put heals it.
func TestCorruptionTolerance(t *testing.T) {
	st, err := Open(t.TempDir(), "e1")
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	payload := []byte(`{"v":42}`)
	if err := st.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	p := entryFile(t, st)

	// Truncate mid-file: the envelope no longer decodes.
	info, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(p, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); ok {
		t.Fatal("truncated entry must read as a miss")
	}
	if s := st.Stats(); s.Corrupt != 1 {
		t.Fatalf("corrupt counter %d, want 1", s.Corrupt)
	}

	// A well-formed envelope whose payload bytes were tampered with fails
	// the checksum.
	if err := st.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(b), `{"v":42}`, `{"v":43}`, 1)
	if tampered == string(b) {
		t.Fatal("tamper target not found in entry file")
	}
	if err := os.WriteFile(p, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); ok {
		t.Fatal("checksum-failing entry must read as a miss")
	}

	// An entry copied under the wrong key fails the key echo.
	other := testKey(2)
	if err := st.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	wrong := st.path(other)
	if err := os.MkdirAll(filepath.Dir(wrong), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wrong, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(other); ok {
		t.Fatal("mis-keyed entry must read as a miss")
	}

	// Heal: recompute-then-Put overwrites the bad entry and Get hits again.
	if err := st.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(key); !ok || string(got) != string(payload) {
		t.Fatalf("healed entry: ok=%v got %q", ok, got)
	}
}

// TestEpochInvalidation: an entry written under one epoch can never satisfy
// a store opened under another — the post-refactor staleness guard.
func TestEpochInvalidation(t *testing.T) {
	dir := t.TempDir()
	key := testKey(3)
	a, err := Open(dir, "epoch-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(key, []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Get(key); !ok {
		t.Fatal("same-epoch Get must hit")
	}
	b, err := Open(dir, "epoch-b")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Get(key); ok {
		t.Fatal("epoch bump must invalidate: Get under a new epoch hit a stale entry")
	}
	// The old epoch's entries are untouched — sharing one dir is safe.
	if _, ok := a.Get(key); !ok {
		t.Fatal("old epoch's entry must survive a new epoch being opened")
	}
}

// TestSharedDirTwoHandles models two sequential processes over one store
// directory: what the first publishes, the second reads.
func TestSharedDirTwoHandles(t *testing.T) {
	dir := t.TempDir()
	key := testKey(4)
	p1, err := Open(dir, "e")
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Put(key, []byte(`"r"`)); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(dir, "e")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := p2.Get(key)
	if !ok || string(got) != `"r"` {
		t.Fatalf("second process: ok=%v got %q", ok, got)
	}
	if s := p2.Stats(); s.Hits != 1 || s.Puts != 0 {
		t.Fatalf("second-process stats %+v: want hits=1 puts=0", s)
	}
}

func TestMarkCorrupt(t *testing.T) {
	st, err := Open(t.TempDir(), "e")
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(5)
	if err := st.Put(key, []byte(`["not a report"]`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); !ok {
		t.Fatal("envelope-valid entry must hit")
	}
	st.MarkCorrupt()
	s := st.Stats()
	if s.Hits != 0 || s.Misses != 1 || s.Corrupt != 1 {
		t.Fatalf("after MarkCorrupt: %+v, want hits=0 misses=1 corrupt=1", s)
	}
}

func TestEpochFunction(t *testing.T) {
	a := Epoch("model=1", "fig7@2")
	if len(a) != 16 {
		t.Fatalf("epoch length %d, want 16", len(a))
	}
	if a != Epoch("model=1", "fig7@2") {
		t.Fatal("Epoch must be deterministic")
	}
	if a == Epoch("model=2", "fig7@2") || a == Epoch("model=1", "fig7@3") {
		t.Fatal("every part must influence the epoch")
	}
	// The separator must prevent boundary ambiguity.
	if Epoch("ab", "c") == Epoch("a", "bc") {
		t.Fatal("part boundaries must be unambiguous")
	}
}
