package psmpi

import (
	"strings"
	"testing"

	"clusterbooster/internal/fabric"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/vclock"
)

// failureFixture launches a long-running ring job (each rank forwards a token
// forever-ish) under an armed injector and returns the result.
func failureFixture(t *testing.T, mtbf vclock.Time, seed int64, maxFailures int) (Result, error) {
	t.Helper()
	sys := machine.New(4, 0)
	rt := NewRuntime(sys, fabric.New(sys), Config{})
	nodes := sys.Module(machine.Cluster)
	inj := NewFailureInjector(mtbf, seed, maxFailures, nodes)
	res, err := rt.Launch(LaunchSpec{
		Nodes:    nodes,
		Failures: inj,
		Main: func(p *Proc) error {
			c := p.World()
			next := (p.Rank() + 1) % c.Size()
			prev := (p.Rank() - 1 + c.Size()) % c.Size()
			for i := 0; i < 400; i++ {
				if p.Rank() == 0 {
					p.Send(c, next, 1, nil, 8)
					p.Recv(c, prev, 1)
				} else {
					p.Recv(c, prev, 1)
					p.Send(c, next, 1, nil, 8)
				}
				p.Elapse(vclock.Millisecond)
			}
			return nil
		},
	})
	return res, err
}

// TestInjectedFailureAbortsWholeJob checks that one node failure tears the
// whole job down with NodeFailure errors on every rank — and that the errors
// are failure reports, not deadlock reports.
func TestInjectedFailureAbortsWholeJob(t *testing.T) {
	res, err := failureFixture(t, 100*vclock.Millisecond, 7, 1)
	if err == nil {
		t.Fatal("job survived an injected failure")
	}
	nf, ok := FailureOf(err)
	if !ok {
		t.Fatalf("no NodeFailure in %v", err)
	}
	if nf.At <= 0 {
		t.Fatalf("failure at %v, want > 0", nf.At)
	}
	if strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("failure reported as deadlock: %v", err)
	}
	// One failure was injected, and every rank of the job carries it.
	if got := strings.Count(err.Error(), nf.Error()); got != 4 {
		t.Fatalf("%d of 4 rank errors carry %q: %v", got, nf, err)
	}
	_ = res
}

// TestInjectorDeterminism checks that the same seed yields the same failure
// instant and victim, run after run.
func TestInjectorDeterminism(t *testing.T) {
	_, err1 := failureFixture(t, 100*vclock.Millisecond, 42, 1)
	_, err2 := failureFixture(t, 100*vclock.Millisecond, 42, 1)
	nf1, ok1 := FailureOf(err1)
	nf2, ok2 := FailureOf(err2)
	if !ok1 || !ok2 {
		t.Fatalf("expected failures, got %v / %v", err1, err2)
	}
	if nf1.At != nf2.At || nf1.Node != nf2.Node {
		t.Fatalf("failure drifted across runs: %v@%v vs %v@%v", nf1.Node, nf1.At, nf2.Node, nf2.At)
	}
	// A different seed draws a different instant (overwhelmingly likely).
	_, err3 := failureFixture(t, 100*vclock.Millisecond, 43, 1)
	if nf3, ok := FailureOf(err3); ok && nf3.At == nf1.At {
		t.Fatalf("seeds 42 and 43 drew the same failure instant %v", nf1.At)
	}
}

// TestExhaustedInjectorLetsJobFinish checks that an injector with no
// failures left (or none configured) never aborts the job.
func TestExhaustedInjectorLetsJobFinish(t *testing.T) {
	if _, err := failureFixture(t, 100*vclock.Millisecond, 7, 0); err != nil {
		t.Fatalf("maxFailures=0 injector aborted the job: %v", err)
	}
	if _, err := failureFixture(t, 0, 7, 5); err != nil {
		t.Fatalf("mtbf=0 injector aborted the job: %v", err)
	}
	// MTBF far beyond the job's virtual length: the armed event never fires.
	if _, err := failureFixture(t, 1e6*vclock.Second, 7, 5); err != nil {
		t.Fatalf("long-MTBF injector aborted the job: %v", err)
	}
}

// TestFailureSpansSpawnedChildren checks that an abort also tears down ranks
// spawned after the launch (the whole job tree dies).
func TestFailureSpansSpawnedChildren(t *testing.T) {
	sys := machine.New(2, 2)
	rt := NewRuntime(sys, fabric.New(sys), Config{})
	booster := sys.Module(machine.Booster)
	pool := append(append([]*machine.Node(nil), booster...), sys.Module(machine.Cluster)...)
	inj := NewFailureInjector(50*vclock.Millisecond, 3, 1, pool)
	rt.Register("child", func(p *Proc) error {
		inter := p.Parent()
		for i := 0; i < 400; i++ {
			p.Recv(inter, p.Rank(), 5)
			p.Send(inter, p.Rank(), 6, nil, 8)
		}
		return nil
	})
	_, err := rt.Launch(LaunchSpec{
		Nodes:    booster,
		Failures: inj,
		Main: func(p *Proc) error {
			inter, err := p.Spawn(p.World(), SpawnSpec{Binary: "child", Procs: 2, Module: machine.Cluster})
			if err != nil {
				return err
			}
			for i := 0; i < 400; i++ {
				p.Send(inter, p.Rank(), 5, nil, 8)
				p.Recv(inter, p.Rank(), 6)
			}
			return nil
		},
	})
	if err == nil {
		t.Fatal("job tree survived an injected failure")
	}
	if _, ok := FailureOf(err); !ok {
		t.Fatalf("no NodeFailure in %v", err)
	}
	if strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("failure reported as deadlock: %v", err)
	}
}
