package fabric_test

import (
	"testing"

	"clusterbooster/internal/fabric"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/psmpi"
	"clusterbooster/internal/vclock"
)

// TestIntraNodeLatencyCheaper times one message of a two-rank psmpi job
// with both ranks on one Cluster node (Fig. 3 has no such pair) and with the
// ranks on two Cluster nodes: the shared-memory path skips the wire and both
// links.
func TestIntraNodeLatencyCheaper(t *testing.T) {
	arrival := func(sameNode bool) vclock.Time {
		sys := machine.New(2, 0)
		rt := psmpi.NewRuntime(sys, fabric.New(sys), psmpi.Config{})
		nodes := []*machine.Node{sys.Node(0), sys.Node(1)}
		if sameNode {
			nodes[1] = sys.Node(0)
		}
		var at vclock.Time
		_, err := rt.Launch(psmpi.LaunchSpec{Nodes: nodes, Main: func(p *psmpi.Proc) error {
			if p.Rank() == 0 {
				p.Send(p.World(), 1, 1, nil, 0)
			} else {
				p.Recv(p.World(), 0, 1)
				at = p.Now()
			}
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		return at
	}
	if intra, inter := arrival(true), arrival(false); intra >= inter {
		t.Errorf("intra-node latency %v not cheaper than inter-node %v", intra, inter)
	}
}
