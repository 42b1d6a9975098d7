package ioexp

import "testing"

// TestStrategiesOrderReturnAndDurable runs every strategy on a small job and
// checks the two instants each one reports: the data can be safe no earlier
// than the application regains control, and both happen inside the job.
func TestStrategiesOrderReturnAndDurable(t *testing.T) {
	const nodes, size = 2, 1 << 20
	got := map[Strategy]Outcome{}
	for _, s := range Strategies() {
		out, err := Run(Params{Strategy: s, Nodes: nodes, Size: size})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if out.Return <= 0 {
			t.Errorf("%s: return at %v, want > 0", s, out.Return)
		}
		if out.Durable < out.Return {
			t.Errorf("%s: durable at %v before return at %v", s, out.Durable, out.Return)
		}
		if out.Makespan < out.Durable {
			t.Errorf("%s: makespan %v before durable at %v", s, out.Makespan, out.Durable)
		}
		if out.Bytes != nodes*size {
			t.Errorf("%s: %d bytes, want %d", s, out.Bytes, nodes*size)
		}
		got[s] = out
	}
	// Asynchronous staging hands control back at NVMe speed, write-through
	// only once the global file system holds the data.
	if a, s := got[CacheAsync].Return, got[CacheSync].Return; a >= s {
		t.Errorf("cache-async returned at %v, not before cache-sync at %v", a, s)
	}
}

func TestRunRejectsBadParams(t *testing.T) {
	for _, p := range []Params{
		{Strategy: NAM, Nodes: 0, Size: 1 << 10},
		{Strategy: NAM, Nodes: 2, Size: 0},
		{Strategy: "tape", Nodes: 2, Size: 1 << 10},
	} {
		if _, err := Run(p); err == nil {
			t.Errorf("Run(%+v) succeeded", p)
		}
	}
}
