// Content-addressed scenario cache. A scenario's compute phase — boot a
// system, run xPic — is a pure function of its resolved configuration: the
// platform is deterministic in virtual time, and (as the golden documents
// prove, see EXPERIMENTS.md "Scenario cache") the report is independent of
// whether the storage stack is booted alongside, since the compute phase
// never touches it. The cache exploits that: each distinct compute
// configuration is canonically hashed, and the process computes it exactly
// once, no matter how many experiments sweep over it — fig7, fig8 and the
// paper sweep all share their mono baselines, and the paper sweep's SCR axis
// re-prices checkpoints over one compute run instead of three.
//
// Checkpoint phases are NOT cached: they are re-priced per scenario on a
// fresh storage system. That is byte-identical to pricing them on the system
// the run used, because every checkpoint reservation starts at or after the
// job's makespan — at or after the end of every link window the run booked —
// so the run's residual link history can never influence the placement.
//
// Concurrent sweep workers that race for the same key share one computation
// (per-entry singleflight), so worker-count invariance holds trivially: the
// bytes a sweep emits are the same with the cache on, off, or shared across
// any number of workers. TestRunCacheTransparency asserts exactly that.
//
// Underneath the in-process memo sits an optional persistent layer
// (internal/runstore, enabled via SetDiskRunStore): successful reports are
// published to an epoch-scoped on-disk store keyed by the same canonical
// hashes, so a second process — a later cbctl invocation, a CI re-run, a
// cbctl serve worker — starts warm. Reports round-trip through their JSON
// encoding bit-exactly (every field is a float64/int/enum with a lossless
// encoding), so a disk-served report yields byte-identical documents; the
// golden gate replays the catalog cold and warm to hold that line. Failed
// computations are never persisted: errors are memoized in-process only and
// become re-attemptable after resetRunCache.
package sweep

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"clusterbooster/internal/core"
	"clusterbooster/internal/runstore"
	"clusterbooster/internal/xpic"
)

var runCache = struct {
	mu sync.Mutex
	m  map[[sha256.Size]byte]*runCacheEntry
}{m: map[[sha256.Size]byte]*runCacheEntry{}}

var (
	cacheDisabled atomic.Bool
	cacheHits     atomic.Uint64
	cacheMisses   atomic.Uint64
	diskStore     atomic.Pointer[runstore.Store]
)

// runCacheEntry is one memoized compute run. The entry mutex serialises
// concurrent workers racing for the same key onto a single computation
// (the singleflight); done guards the memo. A sync.Once is deliberately NOT
// used here: Once marks itself done even when the function panics, which
// would hand every later caller a zero-value report with a nil error — the
// cache-poisoning bug TestRunCachePanicDoesNotPoison pins down. With the
// mutex scheme a panic unwinds before done is set, so the entry stays
// pending and the next caller recomputes.
type runCacheEntry struct {
	mu   sync.Mutex
	done bool
	rep  xpic.Report
	err  error
}

// CacheStats is the scenario cache's hit/miss counters, surfaced through the
// -stats flag of cbctl run, diff and bless.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

// String renders the counters in the -stats flag format.
func (c CacheStats) String() string {
	return fmt.Sprintf("scenario cache: hits=%d misses=%d", c.Hits, c.Misses)
}

// RunCacheStats snapshots the process-wide cache counters.
func RunCacheStats() CacheStats {
	return CacheStats{Hits: cacheHits.Load(), Misses: cacheMisses.Load()}
}

// setRunCache enables or disables the scenario cache (enabled by default).
// With the cache off every scenario boots and runs its own system, exactly
// the pre-cache behaviour; results are byte-identical either way.
func setRunCache(enabled bool) { cacheDisabled.Store(!enabled) }

// resetRunCache drops every memoized run and zeroes the counters. Dropping
// the map is also the retry path for errored computations: error entries are
// memoized in-process (a deterministic simulation fails the same way every
// time) but never persisted, so after a reset the next request genuinely
// recomputes.
func resetRunCache() {
	runCache.mu.Lock()
	runCache.m = map[[sha256.Size]byte]*runCacheEntry{}
	runCache.mu.Unlock()
	cacheHits.Store(0)
	cacheMisses.Store(0)
}

// SetDiskRunStore layers a persistent result store under the in-process
// cache (nil disconnects it). In-process misses consult the store before
// computing; successful computations are published to it. Stale entries
// cannot leak across code generations: the store handle is opened under an
// epoch (see exp.CacheEpoch) and a mismatched epoch never hits.
func SetDiskRunStore(s *runstore.Store) { diskStore.Store(s) }

// DiskRunStore returns the configured persistent store (nil when disabled),
// for the -stats reporting paths.
func DiskRunStore() *runstore.Store { return diskStore.Load() }

// computeKey canonically hashes the point's compute configuration — node
// count, mode and workload; everything that can influence the report, and
// nothing that cannot (the SCR axis only prices checkpoints after the run).
func (p XPicPoint) computeKey() [sha256.Size]byte {
	c := p
	c.SCR = nil
	b, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("sweep: hash scenario config: %v", err))
	}
	return sha256.Sum256(b)
}

// computeRun executes the point's compute phase on a dedicated storage-less
// system (reports are storage-independent; see the package comment above).
func (p XPicPoint) computeRun() (xpic.Report, error) {
	sys := core.New(p.NodesPerSolver, p.NodesPerSolver, core.Options{WithoutStorage: true})
	return sys.RunXPic(p.Mode, p.NodesPerSolver, p.Workload)
}

// cachedRun returns the point's report through the cache, computing it on
// the first request for this configuration.
func (p XPicPoint) cachedRun() (xpic.Report, error) {
	return cachedCompute(p.computeKey(), p.computeRun)
}

// cachedCompute resolves one compute key through the two cache layers:
// the in-process memo first, then the persistent store, then the compute
// function itself. Concurrent callers for one key serialise on the entry
// mutex, so the computation (or the disk read) happens exactly once per
// process — the singleflight cbctl serve relies on to dedupe in-flight
// requests. The hit/miss counters track the in-process layer: a disk-served
// report still counts as a process miss (the disk store keeps its own
// counters).
func cachedCompute(key [sha256.Size]byte, compute func() (xpic.Report, error)) (xpic.Report, error) {
	runCache.mu.Lock()
	e, ok := runCache.m[key]
	if !ok {
		e = &runCacheEntry{}
		runCache.m[key] = e
	}
	runCache.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		cacheHits.Add(1)
		return e.rep, e.err
	}
	cacheMisses.Add(1)
	if st := diskStore.Load(); st != nil {
		if rep, ok := loadStoredReport(st, key); ok {
			e.rep, e.err, e.done = rep, nil, true
			return e.rep, nil
		}
	}
	// A panic below propagates to the sweep's per-scenario recover. done
	// stays false, so the entry is not poisoned: later callers recompute
	// instead of silently reading a zero-value report.
	rep, err := compute()
	e.rep, e.err, e.done = rep, err, true
	if err == nil {
		if st := diskStore.Load(); st != nil {
			storeReport(st, key, rep)
		}
	}
	return rep, err
}

// loadStoredReport fetches and decodes a persisted report. Any failure is a
// miss: a payload the envelope verified but this code cannot decode is
// reclassified on the store's counters and recomputed.
func loadStoredReport(st *runstore.Store, key [sha256.Size]byte) (xpic.Report, bool) {
	b, ok := st.Get(key)
	if !ok {
		return xpic.Report{}, false
	}
	var rep xpic.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		st.MarkCorrupt()
		return xpic.Report{}, false
	}
	return rep, true
}

// storeReport publishes a successful report, best-effort: a store that
// cannot be written degrades to the in-process cache (the store counts the
// failure), it never fails the run. Errored computations are the caller's
// responsibility to withhold.
func storeReport(st *runstore.Store, key [sha256.Size]byte, rep xpic.Report) {
	b, err := json.Marshal(rep)
	if err != nil {
		return
	}
	st.Put(key, b)
}
