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
