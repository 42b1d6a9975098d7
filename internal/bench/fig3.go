package bench

import (
	"fmt"
	"strings"

	"clusterbooster/internal/core"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/psmpi"
	"clusterbooster/internal/sweep"
	"clusterbooster/internal/vclock"
)

// PairKind selects the node-type pair of a Fig. 3 series.
type PairKind int

const (
	// CNCN measures between two Cluster nodes.
	CNCN PairKind = iota
	// BNBN measures between two Booster nodes.
	BNBN
	// CNBN measures between a Cluster and a Booster node.
	CNBN
)

// String names the series as in Fig. 3.
func (k PairKind) String() string {
	switch k {
	case CNCN:
		return "CN-CN"
	case BNBN:
		return "BN-BN"
	default:
		return "CN-BN"
	}
}

// MarshalText emits the series label, so PairKind-keyed maps serialise to
// readable (and deterministically sorted) JSON object keys.
func (k PairKind) MarshalText() ([]byte, error) {
	return []byte(k.String()), nil
}

// UnmarshalText accepts the series label.
func (k *PairKind) UnmarshalText(b []byte) error {
	switch string(b) {
	case "CN-CN":
		*k = CNCN
	case "BN-BN":
		*k = BNBN
	case "CN-BN":
		*k = CNBN
	default:
		return fmt.Errorf("bench: unknown pair kind %q", b)
	}
	return nil
}

// Fig3Row is one message size of the Fig. 3 curves.
type Fig3Row struct {
	Size int `json:"size"`
	// BandwidthMBs is the sustained unidirectional stream bandwidth in
	// MByte/s per pair kind (upper panel of Fig. 3).
	BandwidthMBs map[PairKind]float64 `json:"bandwidth_MBs"`
	// LatencyUs is the single-message one-way latency in µs (lower panel).
	LatencyUs map[PairKind]float64 `json:"latency_us"`
}

// Fig3Sizes returns the message sizes of the paper's plot: powers of two
// from 1 B to 16 MiB (the latency panel stops at 32 KiB).
func Fig3Sizes() []int {
	var out []int
	for s := 1; s <= 16<<20; s *= 2 {
		out = append(out, s)
	}
	return out
}

// LatencyPanelMax is the largest size of the latency panel (32 KiB).
const LatencyPanelMax = 32 << 10

// measurePair runs a real two-rank psmpi job between the node pair and
// returns (bandwidth bytes/s, one-way latency). psmpi prices a message by
// its byte count alone, so the messages carry no body.
func measurePair(kind PairKind, size int) (float64, vclock.Time, error) {
	sys := core.New(2, 2, core.Options{WithoutStorage: true})
	var a, b *machine.Node
	switch kind {
	case CNCN:
		a, b = sys.Machine.Node(0), sys.Machine.Node(1)
	case BNBN:
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
func fig3Pairs() []PairKind { return []PairKind{CNCN, BNBN, CNBN} }

// Fig3Scenarios declares the Fig. 3 measurement grid — message sizes ×
// node-type pairs, one fresh two-rank psmpi job each — as sweep scenarios.
// Every scenario reports "bandwidth_MBs" and "latency_us".
func Fig3Scenarios(sizes []int) []sweep.Scenario {
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
						"bandwidth_MBs": mbs(bw),
						"latency_us":    us(lat),
					}}, nil
				},
			})
		}
	}
	return scenarios
}

// Fig3RowsFrom reassembles the per-size rows from a sweep over
// Fig3Scenarios(sizes).
func Fig3RowsFrom(sizes []int, rs sweep.ResultSet) ([]Fig3Row, error) {
	if err := rs.FirstError(); err != nil {
		return nil, fmt.Errorf("bench: fig3: %w", err)
	}
	pairs := fig3Pairs()
	if rs.Scenarios != len(sizes)*len(pairs) {
		return nil, fmt.Errorf("bench: fig3: %d results for %d grid points", rs.Scenarios, len(sizes)*len(pairs))
	}
	var rows []Fig3Row
	for i, size := range sizes {
		row := Fig3Row{
			Size:         size,
			BandwidthMBs: map[PairKind]float64{},
			LatencyUs:    map[PairKind]float64{},
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

// RenderFig3 renders both panels as text tables.
func RenderFig3(rows []Fig3Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 3 (upper): end-to-end MPI bandwidth [MByte/s]\n")
	fmt.Fprintf(&sb, "%-10s %10s %10s %10s\n", "Size [B]", "CN-CN", "BN-BN", "CN-BN")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10d %10.1f %10.1f %10.1f\n",
			r.Size, r.BandwidthMBs[CNCN], r.BandwidthMBs[BNBN], r.BandwidthMBs[CNBN])
	}
	fmt.Fprintf(&sb, "\nFig. 3 (lower): end-to-end MPI latency [µs]\n")
	fmt.Fprintf(&sb, "%-10s %10s %10s %10s\n", "Size [B]", "CN-CN", "BN-BN", "CN-BN")
	for _, r := range rows {
		if r.Size > LatencyPanelMax {
			continue
		}
		fmt.Fprintf(&sb, "%-10d %10.2f %10.2f %10.2f\n",
			r.Size, r.LatencyUs[CNCN], r.LatencyUs[BNBN], r.LatencyUs[CNBN])
	}
	fmt.Fprintf(&sb, "\n%-40s %8s %8s\n", "Reference point", "ours", "paper")
	if len(rows) > 0 {
		fmt.Fprintf(&sb, "%-40s %7.2fµs %7.2fµs\n", "Zero-size latency CN-CN", rows[0].LatencyUs[CNCN], PaperFig3.LatencyCNCNus)
		fmt.Fprintf(&sb, "%-40s %7.2fµs %7.2fµs\n", "Zero-size latency BN-BN", rows[0].LatencyUs[BNBN], PaperFig3.LatencyBNBNus)
		last := rows[len(rows)-1]
		fmt.Fprintf(&sb, "%-40s %5.0f MB/s %s\n", "Converged bandwidth (all pairs)",
			last.BandwidthMBs[CNCN], "~10-11 GB/s")
	}
	return sb.String()
}
