package psmpi

import (
	"strings"
	"testing"

	"clusterbooster/internal/machine"
)

// TestDeadlockBecomesError: a job whose ranks all block with no message in
// flight used to hang the process; the execution kernel detects it and fails
// every blocked rank.
func TestDeadlockBecomesError(t *testing.T) {
	rt := testRuntime(2, 0)
	_, err := rt.Launch(LaunchSpec{
		Nodes: rt.sys.Module(machine.Cluster)[:2],
		Main: func(p *Proc) error {
			p.Recv(p.World(), 1-p.Rank(), 0) // both wait, nobody sends
			return nil
		},
	})
	if err == nil {
		t.Fatal("deadlocked job returned no error")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("error does not name the deadlock: %v", err)
	}
}

// TestResultCarriesEngineStats: every launch reports its kernel counters.
func TestResultCarriesEngineStats(t *testing.T) {
	rt := testRuntime(2, 0)
	res := runJob(t, rt, 2, func(p *Proc) error {
		if p.Rank() == 0 {
			p.SendF64(p.World(), 1, 0, []float64{1})
			return nil
		}
		buf := make([]float64, 1)
		p.RecvF64(p.World(), 0, 0, buf)
		return nil
	})
	st := res.Engine
	if st.Tasks != 2 || st.Events == 0 {
		t.Fatalf("engine stats = %+v", st)
	}
	if st.EventsPerSec() < 0 || st.String() == "" {
		t.Fatalf("stats rendering broken: %+v", st)
	}
}
