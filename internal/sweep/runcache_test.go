package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clusterbooster/internal/runstore"
	"clusterbooster/internal/scr"
	"clusterbooster/internal/xpic"
)

// cacheTestConfig is a seconds-scale workload that decomposes for 1, 2 and
// 4 ranks per solver.
func cacheTestConfig() xpic.Config {
	cfg := xpic.QuickConfig(6)
	cfg.ParticleScale = 32
	return cfg
}

// cacheTestScenarios builds a grid with deliberate compute-phase sharing:
// the SCR axis re-prices checkpoints over the same compute runs, and the
// whole grid is listed twice under different names, so a correct cache
// computes each distinct (n, mode) point exactly once.
func cacheTestScenarios(t *testing.T) []Scenario {
	t.Helper()
	g := Grid{
		Name:       "cachetest",
		NodeCounts: []int{1, 2},
		Modes:      []xpic.Mode{xpic.BoosterOnly, xpic.SplitCB},
		Workloads:  []WorkloadVariant{{Name: "q", Config: cacheTestConfig()}},
		SCRs: []SCRVariant{
			{Name: "scr=none"},
			{Name: "scr=local", Spec: CheckpointAt(scr.LevelLocal)},
			{Name: "scr=buddy", Spec: CheckpointAt(scr.LevelBuddy)},
		},
	}
	scen, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scen {
		scen = append(scen, Scenario{Name: fmt.Sprintf("again/%d", i), Run: s.Run})
	}
	return scen
}

// runToJSON executes the scenarios and returns the canonical JSON bytes.
func runToJSON(t *testing.T, scen []Scenario, workers int) []byte {
	t.Helper()
	rs := Run(scen, Options{Workers: workers})
	if err := rs.FirstError(); err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunCacheTransparency is the cache's core property: the bytes a sweep
// emits are identical with the cache off (every scenario boots and runs its
// own system, the pre-cache behaviour) and with the cache on, under any
// worker count — even though the cached path runs each distinct compute
// configuration once, on a storage-less system, and prices checkpoints on a
// fresh storage stack.
func TestRunCacheTransparency(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario xpic grids are seconds of host time")
	}
	scen := cacheTestScenarios(t)

	setRunCache(false)
	defer setRunCache(true)
	want := runToJSON(t, scen, 1)

	for _, workers := range []int{1, 3, 8} {
		setRunCache(true)
		resetRunCache()
		got := runToJSON(t, scen, workers)
		if !bytes.Equal(want, got) {
			t.Fatalf("cached run (workers=%d) diverges from uncached bytes", workers)
		}
		st := RunCacheStats()
		// 12 grid scenarios + 12 aliases share 4 distinct compute points
		// (2 node counts x 2 modes).
		if st.Misses != 4 {
			t.Fatalf("cache misses = %d, want 4 distinct compute points", st.Misses)
		}
		if st.Hits != uint64(len(scen))-4 {
			t.Fatalf("cache hits = %d, want %d", st.Hits, len(scen)-4)
		}
	}
}

// TestRunCachePanicDoesNotPoison is the regression test for the cache-
// poisoning bug: the pre-fix sync.Once entry marked itself done when the
// computation panicked, so every later caller for that key silently received
// a zero-value report with a nil error. The fixed entry must leave a
// panicking computation pending — the panic propagates (the sweep layer
// records it per scenario) and the next caller genuinely recomputes.
func TestRunCachePanicDoesNotPoison(t *testing.T) {
	resetRunCache()
	defer resetRunCache()
	key := sha256.Sum256([]byte("panic-regression"))

	calls := 0
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the panicking computation must propagate its panic")
			}
		}()
		cachedCompute(key, func() (xpic.Report, error) {
			calls++
			panic("boom")
		})
	}()

	want := xpic.Report{Makespan: 42, CGIters: 7}
	got, err := cachedCompute(key, func() (xpic.Report, error) {
		calls++
		return want, nil
	})
	if err != nil {
		t.Fatalf("post-panic lookup returned error %v", err)
	}
	if got != want {
		t.Fatalf("post-panic lookup got %+v, want %+v — the panicking first computation poisoned the entry", got, want)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (panic, then recompute)", calls)
	}

	// The successful result is memoized: a third caller must not recompute.
	got, err = cachedCompute(key, func() (xpic.Report, error) {
		t.Fatal("memoized entry recomputed")
		return xpic.Report{}, nil
	})
	if err != nil || got != want {
		t.Fatalf("memoized lookup: got %+v err %v", got, err)
	}
}

// TestRunCacheErrorRetention: an errored computation is memoized in-process
// (same config, same deterministic failure), must never be persisted to the
// disk store, and becomes re-attemptable after resetRunCache.
func TestRunCacheErrorRetention(t *testing.T) {
	dir := t.TempDir()
	st, err := runstore.Open(dir, "err-test")
	if err != nil {
		t.Fatal(err)
	}
	SetDiskRunStore(st)
	defer SetDiskRunStore(nil)
	resetRunCache()
	defer resetRunCache()
	key := sha256.Sum256([]byte("error-retention"))

	calls := 0
	boom := errors.New("boom")
	if _, err := cachedCompute(key, func() (xpic.Report, error) {
		calls++
		return xpic.Report{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("first computation returned %v, want boom", err)
	}
	// Memoized within the process: the compute function must not rerun.
	if _, err := cachedCompute(key, func() (xpic.Report, error) {
		t.Fatal("errored entry recomputed without a reset")
		return xpic.Report{}, nil
	}); !errors.Is(err, boom) {
		t.Fatalf("memoized error lookup returned %v, want boom", err)
	}
	// Never on disk.
	if s := st.Stats(); s.Puts != 0 {
		t.Fatalf("errored computation was persisted: %d puts", s.Puts)
	}
	if n := len(storeEntryFiles(t, dir)); n != 0 {
		t.Fatalf("errored computation left %d entry files on disk", n)
	}

	// resetRunCache is the retry path: the point recomputes, and a success
	// this time is persisted.
	resetRunCache()
	want := xpic.Report{Makespan: 1}
	got, err := cachedCompute(key, func() (xpic.Report, error) {
		calls++
		return want, nil
	})
	if err != nil || got != want {
		t.Fatalf("post-reset recompute: got %+v err %v", got, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (error, then post-reset retry)", calls)
	}
	if s := st.Stats(); s.Puts != 1 {
		t.Fatalf("successful recompute not persisted: %d puts", s.Puts)
	}
}

// storeEntryFiles returns every store entry file under dir.
func storeEntryFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(p, ".json") {
			out = append(out, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunCacheDiskTransparency mirrors TestRunCacheTransparency one layer
// down: the bytes a sweep emits are identical with the disk store disabled,
// cold, warm in a second "process" (fresh in-process cache, new store handle
// over the same directory), and after an entry is truncated mid-file (the
// corrupt entry reads as a miss, recomputes, and heals).
func TestRunCacheDiskTransparency(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario xpic grids are seconds of host time")
	}
	scen := cacheTestScenarios(t)

	setRunCache(false)
	want := runToJSON(t, scen, 1)
	setRunCache(true)

	dir := t.TempDir()
	const epoch = "transparency-test"
	defer SetDiskRunStore(nil)

	// Process 1: cold store — every distinct point computes and publishes.
	st1, err := runstore.Open(dir, epoch)
	if err != nil {
		t.Fatal(err)
	}
	SetDiskRunStore(st1)
	resetRunCache()
	if got := runToJSON(t, scen, 4); !bytes.Equal(want, got) {
		t.Fatal("cold disk-store run diverges from uncached bytes")
	}
	if s := st1.Stats(); s.Hits != 0 || s.Puts != 4 {
		t.Fatalf("cold-store stats %+v, want hits=0 puts=4", s)
	}

	// Process 2: warm store — every distinct point is served from disk.
	st2, err := runstore.Open(dir, epoch)
	if err != nil {
		t.Fatal(err)
	}
	SetDiskRunStore(st2)
	resetRunCache()
	if got := runToJSON(t, scen, 4); !bytes.Equal(want, got) {
		t.Fatal("warm disk-store run diverges from uncached bytes")
	}
	if s := st2.Stats(); s.Hits != 4 || s.Puts != 0 || s.Corrupt != 0 {
		t.Fatalf("warm-store stats %+v, want hits=4 puts=0", s)
	}
	if s := RunCacheStats(); s.Misses != 4 {
		t.Fatalf("in-process misses %d, want 4 (disk hits still miss the in-process layer)", s.Misses)
	}

	// Process 3: one entry truncated mid-file — a miss plus recompute, the
	// other three still served from disk, bytes still identical, entry healed.
	files := storeEntryFiles(t, filepath.Join(dir, epoch))
	if len(files) != 4 {
		t.Fatalf("store holds %d entries, want 4", len(files))
	}
	info, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[0], info.Size()/2); err != nil {
		t.Fatal(err)
	}
	st3, err := runstore.Open(dir, epoch)
	if err != nil {
		t.Fatal(err)
	}
	SetDiskRunStore(st3)
	resetRunCache()
	if got := runToJSON(t, scen, 4); !bytes.Equal(want, got) {
		t.Fatal("run over a corrupted entry diverges from uncached bytes")
	}
	if s := st3.Stats(); s.Hits != 3 || s.Corrupt != 1 || s.Puts != 1 {
		t.Fatalf("corruption-recovery stats %+v, want hits=3 corrupt=1 puts=1", s)
	}

	// An epoch bump orphans every entry: all four points recompute.
	st4, err := runstore.Open(dir, "transparency-test-v2")
	if err != nil {
		t.Fatal(err)
	}
	SetDiskRunStore(st4)
	resetRunCache()
	if got := runToJSON(t, scen, 4); !bytes.Equal(want, got) {
		t.Fatal("post-epoch-bump run diverges from uncached bytes")
	}
	if s := st4.Stats(); s.Hits != 0 || s.Puts != 4 {
		t.Fatalf("epoch-bump stats %+v, want hits=0 puts=4", s)
	}
}

// TestRunCacheKeySensitivity: every compute-relevant axis must change the
// key; the SCR axis must not.
func TestRunCacheKeySensitivity(t *testing.T) {
	base := XPicPoint{NodesPerSolver: 2, Mode: xpic.BoosterOnly, Workload: cacheTestConfig()}
	k0 := base.computeKey()

	p := base
	p.NodesPerSolver = 4
	if p.computeKey() == k0 {
		t.Fatal("node count does not change the cache key")
	}
	p = base
	p.Mode = xpic.SplitCB
	if p.computeKey() == k0 {
		t.Fatal("mode does not change the cache key")
	}
	p = base
	p.Workload.Steps++
	if p.computeKey() == k0 {
		t.Fatal("workload does not change the cache key")
	}
	p = base
	p.SCR = CheckpointAt(scr.LevelBuddy)
	if p.computeKey() != k0 {
		t.Fatal("SCR axis changes the cache key (checkpoints are priced after the run and must share the compute phase)")
	}
}
