// Result-set rendering. The text form, like a ResultSet's JSON encoding, is
// deterministic: results are ordered by scenario index and metric keys by
// name, so the same sweep definition always serialises to the same bytes
// regardless of worker count or host scheduling.
package sweep

import (
	"fmt"
	"sort"
	"strings"
)

// RenderText renders a human-readable summary table: the key xPic columns
// when present, otherwise the per-scenario metrics inline.
func (rs ResultSet) RenderText() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Sweep: %d scenarios, %d failed\n", rs.Scenarios, rs.Failures)
	nameW := len("scenario")
	for _, r := range rs.Results {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	fmt.Fprintf(&sb, "%-*s | %10s %10s %10s %9s %7s\n",
		nameW, "scenario", "total[s]", "fields[s]", "parts[s]", "ovhd[%]", "ckpt[s]")
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", nameW+55))
	for _, r := range rs.Results {
		if r.Error != "" {
			fmt.Fprintf(&sb, "%-*s | ERROR: %s\n", nameW, r.Name, r.Error)
			continue
		}
		if r.XPic == nil {
			fmt.Fprintf(&sb, "%-*s | %s\n", nameW, r.Name, renderMetrics(r.Metrics))
			continue
		}
		ckpt := "-"
		if v, ok := r.Metrics["checkpoint_s"]; ok {
			ckpt = fmt.Sprintf("%.3f", v)
		}
		fmt.Fprintf(&sb, "%-*s | %10.2f %10.2f %10.2f %8.1f%% %7s\n",
			nameW, r.Name,
			r.XPic.Makespan.Seconds(), r.XPic.FieldTime.Seconds(),
			r.XPic.ParticleTime.Seconds(), 100*r.XPic.OverheadFraction(), ckpt)
	}
	return sb.String()
}

func renderMetrics(m Metrics) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%g", k, m[k]))
	}
	return strings.Join(parts, " ")
}
