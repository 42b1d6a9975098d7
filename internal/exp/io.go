// The fig-io experiment family: §III-C's I/O strategies evaluated live on
// the event kernel. Each grid point launches one MPI-style job in which
// every rank pushes a checkpoint-sized payload through one strategy of the
// DEEP-ER I/O stack — SIONlib containers on BeeGFS or node-local NVMe,
// BeeOND cache domains (sync/async), buddy copies, network-attached memory
// — and records when the application regains control versus when the data
// is durable. The derived measures pin the stack's architectural claims:
// async staging returns at NVMe speed, task-local concentration beats the
// global path, the NAM beats them all for burst absorption.
package exp

import (
	"fmt"

	"clusterbooster/internal/ioexp"
	"clusterbooster/internal/sweep"
)

// ioNodeCounts and ioSizes span the fig-io grid: small and prototype-scale
// rank counts, a small and a checkpoint-sized per-rank payload.
func ioNodeCounts() []int { return []int{4, 16} }
func ioSizes() []int64    { return []int64{1 << 20, 8 << 20} }

// ioPointName names one grid point, e.g. "fig-io/cache-async/n16/8MiB".
func ioPointName(s ioexp.Strategy, nodes int, size int64) string {
	return fmt.Sprintf("fig-io/%s/n%d/%dMiB", s, nodes, size>>20)
}

// ioScenario wraps one grid point as a self-contained Scenario — fresh
// system, fresh storage stack, one MPI-style job — reporting the
// return/durable split plus aggregate bandwidth.
func ioScenario(name string, p ioexp.Params) sweep.Scenario {
	return sweep.Scenario{Name: name, Run: func() (sweep.Outcome, error) {
		out, err := ioexp.Run(p)
		if err != nil {
			return sweep.Outcome{}, err
		}
		m := sweep.Metrics{
			"makespan_s": out.Makespan.Seconds(),
			"return_s":   out.Return.Seconds(),
			"durable_s":  out.Durable.Seconds(),
			"bytes":      float64(out.Bytes),
		}
		if s := out.Durable.Seconds(); s > 0 {
			m["agg_gbs"] = float64(out.Bytes) / s / 1e9
		}
		return sweep.Outcome{Metrics: m}, nil
	}}
}

func registerFigIO() {
	e := Experiment{
		Name:    "fig-io",
		Title:   "I/O strategies: SIONlib, BeeOND cache domains, buddy, NAM on the event kernel (§III-C)",
		Version: 1,
		Grid:    "6 strategies x {4, 16} nodes x {1, 8} MiB per rank, one rank per node",
		Profile: "ci-io",
		Tolerance: map[string]float64{
			"*": 0.02,
		},
		// Measured at the largest grid point (16 nodes, 8 MiB per rank).
		// These floors are the stack's architectural claims; blessing cannot
		// relax them — a model change that erodes what async staging or
		// task-local concentration buys fails diff until the bounds
		// themselves are revised.
		Budgets: []Budget{
			// Async cache writes return ~14x sooner than write-through.
			{Measure: "async_return_gain", Kind: MinBudget, Bound: 8.0},
			// ...but their durability trails the return: the drain waits on
			// the background flush to the global FS.
			{Measure: "async_stage_span", Kind: MinBudget, Bound: 5.0},
			// Task-local NVMe containers seal ~11x before the shared global
			// container (the fan-in bottleneck SIONlib mitigates but cannot
			// erase).
			{Measure: "local_container_gain", Kind: MinBudget, Bound: 5.0},
			// The NAM absorbs the burst ~70x faster than the global container.
			{Measure: "nam_gain", Kind: MinBudget, Bound: 20.0},
			// The redundant buddy copy costs real time after the app resumed.
			{Measure: "buddy_redundancy_span", Kind: MinBudget, Bound: 1.5},
			// Virtual-time ceiling across the whole grid: the family must
			// stay a CI-speed miniature.
			{Measure: "max_makespan_s", Kind: MaxBudget, Bound: 0.25},
		},
	}
	registerResultSet(e, func() ([]sweep.Scenario, error) {
		var scen []sweep.Scenario
		for _, s := range ioexp.Strategies() {
			for _, nodes := range ioNodeCounts() {
				for _, size := range ioSizes() {
					p := ioexp.Params{Strategy: s, Nodes: nodes, Size: size}
					scen = append(scen, ioScenario(ioPointName(s, nodes, size), p))
				}
			}
		}
		return scen, nil
	}, func(rs sweep.ResultSet) (map[string]string, map[string]float64) {
		measures := sweepMeasures(rs)
		// Derived claims, all at the largest grid point.
		at := func(s ioexp.Strategy, metric string) float64 {
			return resultMetric(rs, ioPointName(s, 16, 8<<20), metric)
		}
		measures["async_return_gain"] = at(ioexp.CacheSync, "return_s") / at(ioexp.CacheAsync, "return_s")
		measures["async_stage_span"] = at(ioexp.CacheAsync, "durable_s") / at(ioexp.CacheAsync, "return_s")
		measures["local_container_gain"] = at(ioexp.SIONGlobal, "durable_s") / at(ioexp.SIONLocal, "durable_s")
		measures["nam_gain"] = at(ioexp.SIONGlobal, "durable_s") / at(ioexp.NAM, "durable_s")
		measures["buddy_redundancy_span"] = at(ioexp.Buddy, "durable_s") / at(ioexp.Buddy, "return_s")
		meta := map[string]string{
			"profile":  "ci-io",
			"workload": "one rank per node; payload bytes per rank on the size axis",
			"grid":     "see internal/exp/io.go; derived measures bind the n=16, 8 MiB point",
		}
		return meta, measures
	})
}
