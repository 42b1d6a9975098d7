package psmpi

import (
	"strings"
	"testing"

	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// revocationFixture launches the failure-test ring job on the Cluster side
// of a 4+4 machine, with the revocation schedule picked against that same
// machine, and returns the result.
func revocationFixture(t *testing.T, pick func(sys *machine.System) []Revocation) (Result, error) {
	t.Helper()
	sys := machine.New(4, 4)
	rt := NewRuntime(sys, newTestNet(sys), Config{})
	nodes := sys.Module(machine.Cluster)
	return rt.Launch(LaunchSpec{
		Nodes:       nodes,
		Revocations: pick(sys),
		Main: func(p *Proc) error {
			c := p.World()
			next := (p.Rank() + 1) % c.Size()
			prev := (p.Rank() - 1 + c.Size()) % c.Size()
			for i := 0; i < 400; i++ {
				if p.Rank() == 0 {
					p.Send(c, next, 1, i, 8)
					p.Recv(c, prev, 1)
				} else {
					p.Recv(c, prev, 1)
					p.Send(c, next, 1, i, 8)
				}
				p.Elapse(vclock.Millisecond)
			}
			return nil
		},
	})
}

// TestRevocationAbortsJobRecoverably: revoking an occupied node mid-run
// kills the whole job with a recoverable NodeFailure at exactly the
// revocation instant — the batch system's drain surfaces like an injected
// failure, so the same restart loop handles both.
func TestRevocationAbortsJobRecoverably(t *testing.T) {
	at := 50 * vclock.Millisecond
	var victim string
	_, err := revocationFixture(t, func(sys *machine.System) []Revocation {
		n := sys.Module(machine.Cluster)[2]
		victim = n.Name()
		return []Revocation{{At: at, Nodes: []*machine.Node{n}}}
	})
	if err == nil {
		t.Fatal("job survived the revocation of an occupied node")
	}
	nf, ok := FailureOf(err)
	if !ok {
		t.Fatalf("no recoverable NodeFailure in %v", err)
	}
	if nf.At != at {
		t.Fatalf("failure at %v, want the revocation instant %v", nf.At, at)
	}
	if nf.Node != victim {
		t.Fatalf("failure names node %s, want the revoked %s", nf.Node, victim)
	}
	if strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("revocation reported as deadlock: %v", err)
	}
}

// TestRevocationOfForeignNodeIsNoOp: revoking nodes the job does not occupy
// (here: the Booster while the job runs on the Cluster) must not disturb it,
// and neither must a revocation scheduled past the job's end.
func TestRevocationOfForeignNodeIsNoOp(t *testing.T) {
	if _, err := revocationFixture(t, func(sys *machine.System) []Revocation {
		return []Revocation{{At: 50 * vclock.Millisecond, Nodes: sys.Module(machine.Booster)}}
	}); err != nil {
		t.Fatalf("foreign-node revocation killed the job: %v", err)
	}
	if _, err := revocationFixture(t, func(sys *machine.System) []Revocation {
		return []Revocation{{At: 1e6 * vclock.Second, Nodes: sys.Module(machine.Cluster)[:1]}}
	}); err != nil {
		t.Fatalf("post-completion revocation killed the job: %v", err)
	}
}
