// Fig. 3: the fabric curves. Every point is a fresh two-rank psmpi job
// between one node-type pair; fig3RowsFrom reassembles the sweep into one
// row per message size.
package exp

import (
	"fmt"
	"strings"

	"clusterbooster/internal/core"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/psmpi"
	"clusterbooster/internal/sweep"
	"clusterbooster/internal/vclock"
)

// pairKind selects the node-type pair of a Fig. 3 series.
type pairKind int

const (
	// pairCNCN measures between two Cluster nodes.
	pairCNCN pairKind = iota
	// pairBNBN measures between two Booster nodes.
	pairBNBN
	// pairCNBN measures between a Cluster and a Booster node.
	pairCNBN
)

// String names the series as in Fig. 3.
func (k pairKind) String() string {
	switch k {
	case pairCNCN:
		return "CN-CN"
	case pairBNBN:
		return "BN-BN"
	default:
		return "CN-BN"
	}
}

// MarshalText emits the series label, so pairKind-keyed maps serialise to
// readable (and deterministically sorted) JSON object keys.
func (k pairKind) MarshalText() ([]byte, error) {
	return []byte(k.String()), nil
}

// UnmarshalText accepts the series label.
func (k *pairKind) UnmarshalText(b []byte) error {
	switch string(b) {
	case "CN-CN":
		*k = pairCNCN
	case "BN-BN":
		*k = pairBNBN
	case "CN-BN":
		*k = pairCNBN
	default:
		return fmt.Errorf("exp: unknown pair kind %q", b)
	}
	return nil
}

// fig3Row is one message size of the Fig. 3 curves.
type fig3Row struct {
	Size int `json:"size"`
	// BandwidthMBs is the sustained unidirectional stream bandwidth in
	// MByte/s per pair kind (upper panel of Fig. 3).
	BandwidthMBs map[pairKind]float64 `json:"bandwidth_MBs"`
	// LatencyUs is the single-message one-way latency in µs (lower panel).
	LatencyUs map[pairKind]float64 `json:"latency_us"`
}

// fig3Sizes returns the message sizes of the paper's plot: powers of two
// from 1 B to 16 MiB (the latency panel stops at 32 KiB).
func fig3Sizes() []int {
	var out []int
	for s := 1; s <= 16<<20; s *= 2 {
		out = append(out, s)
	}
	return out
}

// latencyPanelMax is the largest size of the latency panel (32 KiB).
const latencyPanelMax = 32 << 10

// measurePair runs a real two-rank psmpi job between the node pair and
// returns (bandwidth bytes/s, one-way latency). psmpi prices a message by
// its byte count alone, so the messages carry no body.
func measurePair(kind pairKind, size int) (float64, vclock.Time, error) {
	sys := core.New(2, 2, core.Options{WithoutStorage: true})
	var a, b *machine.Node
	switch kind {
	case pairCNCN:
		a, b = sys.Machine.Node(0), sys.Machine.Node(1)
	case pairBNBN:
		a, b = sys.Machine.Node(2), sys.Machine.Node(3)
	default:
		a, b = sys.Machine.Node(0), sys.Machine.Node(2)
	}

	const burst = 8 // messages per bandwidth measurement
	var latency vclock.Time
	var bwTime vclock.Time
	_, err := sys.Runtime.Launch(psmpi.LaunchSpec{
		Nodes: []*machine.Node{a, b},
		Main: func(p *psmpi.Proc) error {
			w := p.World()
			if p.Rank() == 0 {
				// Latency: one message, then a stream for bandwidth.
				p.Send(w, 1, 1, nil, size)
				for k := 0; k < burst; k++ {
					p.Send(w, 1, 2, nil, size)
				}
				return nil
			}
			p.Recv(w, 0, 1)
			latency = p.Now()
			start := p.Now()
			for k := 0; k < burst; k++ {
				p.Recv(w, 0, 2)
			}
			bwTime = p.Now() - start
			return nil
		},
	})
	if err != nil {
		return 0, 0, err
	}
	bw := float64(burst*size) / bwTime.Seconds()
	return bw, latency, nil
}

// fig3Pairs lists the node-type pairs in series order.
func fig3Pairs() []pairKind { return []pairKind{pairCNCN, pairBNBN, pairCNBN} }

// fig3Scenarios declares the Fig. 3 measurement grid — message sizes ×
// node-type pairs, one fresh two-rank psmpi job each — as sweep scenarios.
// Every scenario reports "bandwidth_MBs" and "latency_us".
func fig3Scenarios(sizes []int) []sweep.Scenario {
	var scenarios []sweep.Scenario
	for _, size := range sizes {
		for _, kind := range fig3Pairs() {
			size, kind := size, kind
			scenarios = append(scenarios, sweep.Scenario{
				Name: fmt.Sprintf("fig3/%v/size=%d", kind, size),
				Run: func() (sweep.Outcome, error) {
					bw, lat, err := measurePair(kind, size)
					if err != nil {
						return sweep.Outcome{}, err
					}
					return sweep.Outcome{Metrics: sweep.Metrics{
						"bandwidth_MBs": bw / 1e6,
						"latency_us":    lat.Micros(),
					}}, nil
				},
			})
		}
	}
	return scenarios
}

// fig3RowsFrom reassembles the per-size rows from a sweep over
// fig3Scenarios(sizes).
func fig3RowsFrom(sizes []int, rs sweep.ResultSet) ([]fig3Row, error) {
	if err := rs.FirstError(); err != nil {
		return nil, err
	}
	pairs := fig3Pairs()
	if rs.Scenarios != len(sizes)*len(pairs) {
		return nil, fmt.Errorf("%d results for %d grid points", rs.Scenarios, len(sizes)*len(pairs))
	}
	var rows []fig3Row
	for i, size := range sizes {
		row := fig3Row{
			Size:         size,
			BandwidthMBs: map[pairKind]float64{},
			LatencyUs:    map[pairKind]float64{},
		}
		for j, kind := range pairs {
			m := rs.Results[i*len(pairs)+j].Metrics
			row.BandwidthMBs[kind] = m["bandwidth_MBs"]
			row.LatencyUs[kind] = m["latency_us"]
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// renderFig3 renders both panels as text tables.
func renderFig3(rows []fig3Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 3 (upper): end-to-end MPI bandwidth [MByte/s]\n")
	fmt.Fprintf(&sb, "%-10s %10s %10s %10s\n", "Size [B]", "CN-CN", "BN-BN", "CN-BN")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10d %10.1f %10.1f %10.1f\n",
			r.Size, r.BandwidthMBs[pairCNCN], r.BandwidthMBs[pairBNBN], r.BandwidthMBs[pairCNBN])
	}
	fmt.Fprintf(&sb, "\nFig. 3 (lower): end-to-end MPI latency [µs]\n")
	fmt.Fprintf(&sb, "%-10s %10s %10s %10s\n", "Size [B]", "CN-CN", "BN-BN", "CN-BN")
	for _, r := range rows {
		if r.Size > latencyPanelMax {
			continue
		}
		fmt.Fprintf(&sb, "%-10d %10.2f %10.2f %10.2f\n",
			r.Size, r.LatencyUs[pairCNCN], r.LatencyUs[pairBNBN], r.LatencyUs[pairCNBN])
	}
	fmt.Fprintf(&sb, "\n%-40s %8s %8s\n", "Reference point", "ours", "paper")
	if len(rows) > 0 {
		fmt.Fprintf(&sb, "%-40s %7.2fµs %7.2fµs\n", "Zero-size latency CN-CN", rows[0].LatencyUs[pairCNCN], paperFig3.latencyCNCNus)
		fmt.Fprintf(&sb, "%-40s %7.2fµs %7.2fµs\n", "Zero-size latency BN-BN", rows[0].LatencyUs[pairBNBN], paperFig3.latencyBNBNus)
		last := rows[len(rows)-1]
		fmt.Fprintf(&sb, "%-40s %5.0f MB/s %s\n", "Converged bandwidth (all pairs)",
			last.BandwidthMBs[pairCNCN], "~10-11 GB/s")
	}
	return sb.String()
}
