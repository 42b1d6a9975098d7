// The fig-modular experiment: §II-A's case for modular pools over paired
// nodes. "Resources are reserved and allocated independently", so a
// CPU-only job and a Booster-only job share the machine; an accelerated
// cluster pairs every CPU with an accelerator, and a one-sided job strands
// the other half of each node it holds. Each row schedules one job mix on
// both machines, with the same node count per module and the same FCFS
// queue, so the makespan ratio isolates the reservation model. The derived
// measures pin the claim: complementary mixes finish at least 1.5x sooner
// on modular pools, and a balanced job gains nothing.
package exp

import (
	"fmt"
	"strings"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/sched"
	"clusterbooster/internal/vclock"
)

// modularMix is one job mix of fig-modular on nodes per module.
type modularMix struct {
	name  string
	nodes int
	jobs  []sched.Job
}

// modularMixes is the experiment's grid. "mixed" pairs two CPU-only and two
// Booster-only jobs with a balanced tail job; "complementary" is the same
// without the tail; "balanced" is one job that needs as many nodes of each
// module, which both machines serve alike.
func modularMixes() []modularMix {
	const s = vclock.Second
	return []modularMix{
		{name: "mixed", nodes: 8, jobs: []sched.Job{
			{ID: 1, Cluster: 8, Duration: 10 * s},
			{ID: 2, Booster: 8, Duration: 10 * s},
			{ID: 3, Cluster: 8, Duration: 10 * s},
			{ID: 4, Booster: 8, Duration: 10 * s},
			{ID: 5, Cluster: 4, Booster: 4, Duration: 5 * s},
		}},
		{name: "complementary", nodes: 8, jobs: []sched.Job{
			{ID: 1, Cluster: 8, Duration: 10 * s},
			{ID: 2, Booster: 8, Duration: 10 * s},
			{ID: 3, Cluster: 8, Duration: 10 * s},
			{ID: 4, Booster: 8, Duration: 10 * s},
		}},
		{name: "balanced", nodes: 4, jobs: []sched.Job{
			{ID: 1, Cluster: 4, Booster: 4, Duration: 5 * s},
		}},
	}
}

// modularRow is one mix scheduled on modular pools and on an accelerated
// cluster with as many paired nodes as each pool has nodes.
type modularRow struct {
	Mix          string  `json:"mix"`
	Jobs         int     `json:"jobs"`
	Nodes        int     `json:"nodes"`
	ModularS     float64 `json:"modular_s"`
	AcceleratedS float64 `json:"accelerated_s"`
	// Gain is AcceleratedS over ModularS.
	Gain float64 `json:"gain"`
}

func registerFigModular() {
	e := Experiment{
		Name:    "fig-modular",
		Title:   "Modular pools vs an accelerated cluster of paired nodes: queue makespan per job mix (§II-A)",
		Version: 1,
		Grid:    "3 job mixes (mixed, complementary, balanced) x {modular, accelerated}, FCFS",
		Profile: "n/a",
		// The modular gains are §II-A's claim; blessing cannot relax them.
		// Measured: 45/25 = 1.8 on mixed and 40/20 = 2.0 on complementary.
		Budgets: []Budget{
			{Measure: "mixed_gain", Kind: MinBudget, Bound: 1.5},
			{Measure: "complementary_gain", Kind: MinBudget, Bound: 1.5},
			// A balanced job binds both halves of its nodes either way.
			{Measure: "balanced_gain", Kind: MinBudget, Bound: 1},
			{Measure: "balanced_gain", Kind: MaxBudget, Bound: 1},
		},
	}
	e.Run = func(o Options) (Document, error) {
		var rows []modularRow
		measures := map[string]float64{}
		for _, mix := range modularMixes() {
			mod, err := sched.SimulateQueue(machine.New(mix.nodes, mix.nodes), mix.jobs, sched.FCFS)
			if err != nil {
				return Document{}, fmt.Errorf("exp: fig-modular: %s: %w", mix.name, err)
			}
			acc, err := sched.SimulateAcceleratedQueue(mix.jobs, mix.nodes)
			if err != nil {
				return Document{}, fmt.Errorf("exp: fig-modular: %s: %w", mix.name, err)
			}
			r := modularRow{
				Mix:          mix.name,
				Jobs:         len(mix.jobs),
				Nodes:        mix.nodes,
				ModularS:     mod.Makespan.Seconds(),
				AcceleratedS: acc.Makespan.Seconds(),
			}
			r.Gain = r.AcceleratedS / r.ModularS
			rows = append(rows, r)
			measures[mix.name+"_gain"] = r.Gain
		}
		return e.document(map[string]string{"profile": e.Profile}, measures, rows)
	}
	e.Render = func(d Document) (string, error) {
		rows, err := parsePayload[[]modularRow](d)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%-14s %5s %7s %10s %14s %6s\n", "mix", "jobs", "nodes", "modular", "accelerated", "gain")
		for _, r := range rows {
			fmt.Fprintf(&b, "%-14s %5d %7s %9.1fs %13.1fs %6.2f\n",
				r.Mix, r.Jobs, fmt.Sprintf("%d+%d", r.Nodes, r.Nodes), r.ModularS, r.AcceleratedS, r.Gain)
		}
		return b.String(), nil
	}
	Register(e)
}
