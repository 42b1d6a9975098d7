// Cache-epoch derivation for the persistent run store. The store
// (internal/runstore) may only serve results computed by the same generation
// of the code that asks: the epoch fingerprints that generation, so any
// change that could alter a report orphans every stored entry instead of
// silently satisfying post-change runs with stale bytes.
package exp

import (
	"fmt"

	"clusterbooster/internal/core"
	"clusterbooster/internal/runstore"
)

// CacheEpoch derives the persistent run store's epoch from the registry and
// the model generation: core.ModelFingerprint (hand-bumped on any simulation
// model or kernel change that can alter a report) plus every registered
// experiment's name@version. A version bump anywhere in the catalog rolls
// the epoch for everything — deliberately conservative: recomputing a warm
// store is cheap, serving one stale report is not. cbctl opens its -store
// directory under this epoch.
func CacheEpoch() string {
	parts := []string{"model=" + core.ModelFingerprint}
	for _, e := range All() {
		parts = append(parts, fmt.Sprintf("%s@%d", e.Name, e.Version))
	}
	return runstore.Epoch(parts...)
}
