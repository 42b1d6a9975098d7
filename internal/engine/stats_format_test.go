package engine

import (
	"testing"
	"time"
)

// TestStatsStringFormat pins the -stats output format. cbctl run -stats and
// deepsim -stats print these strings verbatim.
func TestStatsStringFormat(t *testing.T) {
	serial := Stats{
		Events: 100, Parks: 40, Switches: 60, Kept: 30, Callbacks: 10,
		PeakParked: 3, Tasks: 8, Wall: 2 * time.Second,
	}

	cases := []struct {
		name string
		in   interface{ String() string }
		want string
	}{
		{
			"kernel",
			serial,
			"events=100 events/sec=50 parks=40 switches=60 kept=30 callbacks=10 peak_parked=3 tasks=8 wall=2s",
		},
		{
			"global",
			GlobalStats{Engines: 12, Stats: serial},
			"engines=12 events=100 events/sec=50 parks=40 switches=60 kept=30 callbacks=10 peak_parked=3 tasks=8 wall=2s",
		},
	}
	for _, tc := range cases {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("%s:\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}
}
