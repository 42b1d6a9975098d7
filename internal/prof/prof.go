// Package prof wires pprof profile capture into the CLI: cbctl run
// accepts -cpuprofile/-memprofile so perf work on the simulation
// hot paths can grab real-workload profiles without patching the binaries
// (kernel benchmarks cover the microbenchmark side; these flags cover whole
// sweeps and experiments).
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins profile capture: CPU sampling now (when cpuPath is
// non-empty) and an allocation snapshot at Stop time (when memPath is
// non-empty). The returned stop function is idempotent and must be called
// before the process exits for the profiles to be complete.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: start cpu profile: %w", err)
		}
	}
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("prof: close cpu profile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("prof: %w", err)
			}
			defer f.Close()
			runtime.GC() // materialise the final live heap
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				return fmt.Errorf("prof: write heap profile: %w", err)
			}
		}
		return nil
	}, nil
}
