package scr

import (
	"bytes"
	"testing"

	"clusterbooster/internal/beegfs"
	"clusterbooster/internal/fabric"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/nvme"
)

// fuzzOracle mirrors the manager's validity rules independently: per-step,
// per-rank flags for each level, the buddy ring, the failed-node
// invalidation, and the sealed-container rule for the global level.
type fuzzOracle struct {
	ranks  int
	steps  map[int]*oracleStep
	sealed map[int]bool
}

type oracleStep struct {
	local, buddy, global []bool
	wrote                []bool // current global round's writers
}

func newFuzzOracle(ranks int) *fuzzOracle {
	return &fuzzOracle{ranks: ranks, steps: map[int]*oracleStep{}, sealed: map[int]bool{}}
}

func (o *fuzzOracle) step(s int) *oracleStep {
	st := o.steps[s]
	if st == nil {
		st = &oracleStep{
			local:  make([]bool, o.ranks),
			buddy:  make([]bool, o.ranks),
			global: make([]bool, o.ranks),
			wrote:  make([]bool, o.ranks),
		}
		o.steps[s] = st
	}
	return st
}

func (o *fuzzOracle) checkpoint(s, rank int, levels []Level) {
	st := o.step(s)
	for _, lv := range levels {
		switch lv {
		case LevelLocal:
			st.local[rank] = true
		case LevelBuddy:
			st.buddy[rank] = true
		case LevelGlobal:
			// A write into a sealed container, or a rank writing twice into
			// an open one, starts a new round: the container is recreated
			// (the create truncates the path), the old round's chunks are
			// gone.
			if st.wrote[rank] || o.sealed[s] {
				st.global = make([]bool, o.ranks)
				st.wrote = make([]bool, o.ranks)
				o.sealed[s] = false
			}
			st.global[rank] = true
			st.wrote[rank] = true
		}
	}
}

func (o *fuzzOracle) seal(s int) {
	if _, ok := o.steps[s]; ok {
		o.sealed[s] = true
	}
}

func (o *fuzzOracle) failNode(node int) {
	for s, st := range o.steps {
		// Open (written, unsealed) containers die with the job.
		if !o.sealed[s] {
			any := false
			for _, w := range st.wrote {
				any = any || w
			}
			if any {
				st.global = make([]bool, o.ranks)
				st.wrote = make([]bool, o.ranks)
			}
		}
		for rank := 0; rank < o.ranks; rank++ {
			if rank == node { // rank i lives on node i in the fuzz fixture
				st.local[rank] = false
			}
			if (rank+1)%o.ranks == node { // buddy copies held on the failed node
				st.buddy[rank] = false
			}
		}
	}
}

// best mirrors BestRestart: newest step where every rank has a level, local
// preferred, then buddy, then sealed global.
func (o *fuzzOracle) best() (int, []Level, bool) {
	bestStep := -1
	var bestLv []Level
	for s, st := range o.steps {
		if s <= bestStep {
			continue
		}
		lv := make([]Level, o.ranks)
		good := true
		for rank := 0; rank < o.ranks && good; rank++ {
			switch {
			case st.local[rank]:
				lv[rank] = LevelLocal
			case st.buddy[rank]:
				lv[rank] = LevelBuddy
			case st.global[rank] && o.sealed[s]:
				lv[rank] = LevelGlobal
			default:
				good = false
			}
		}
		if good {
			bestStep, bestLv = s, lv
		}
	}
	return bestStep, bestLv, bestStep >= 0
}

// FuzzBestRestart drives a manager with an arbitrary op sequence —
// checkpoints of arbitrary subsets at arbitrary steps and levels, node
// failures, container seals — and checks BestRestart against the oracle
// after every failure, then proves the chosen plan by restoring every rank
// from its selected level.
func FuzzBestRestart(f *testing.F) {
	// op encoding, one byte each: 0x00-0x5F checkpoint (step from bits 0-2,
	// rank subset cycles), 0x60-0x9F seal a step, 0xA0-0xFF fail a node.
	f.Add([]byte{0x01, 0x02, 0xA0})                   // two checkpoints, one failure
	f.Add([]byte{0x01, 0x61, 0xA1, 0x02, 0xA0})       // seal, fail, re-checkpoint, fail
	f.Add([]byte{0x03, 0xA0, 0xA1, 0xA2})             // cascade: every node dies
	f.Add([]byte{0x01, 0x01, 0x01, 0x61, 0x61, 0xA2}) // replayed rounds and double seals
	f.Add(bytes.Repeat([]byte{0x02, 0xA1}, 6))        // alternating checkpoint/failure
	f.Fuzz(func(t *testing.T, ops []byte) {
		const ranks = 3
		sys := machine.New(ranks, 0)
		nodes := sys.Module(machine.Cluster)
		devs := map[int]*nvme.Device{}
		for _, n := range nodes {
			devs[n.ID] = nvme.New(nvme.P3700())
		}
		net := fabric.New(sys)
		fs := beegfs.New(net)
		// Every checkpoint hits all three levels: the interesting state space
		// is which copies survive, not the cadence.
		m, err := New(Config{BuddyEvery: 1, GlobalEvery: 1}, net, fs, nodes, devs)
		if err != nil {
			t.Fatal(err)
		}
		oracle := newFuzzOracle(ranks)
		payload := func(step, rank int) []byte {
			return []byte{byte('A' + step), byte(rank)}
		}

		now := ioev.At(0)
		for _, op := range ops {
			switch {
			case op < 0x60: // checkpoint one rank at one step
				step := int(op&0x07) + 1
				rank := int(op>>3) % ranks
				levels := m.BeginCheckpoint(step)
				done, err := m.SubmitCheckpoint(now, rank, step, payload(step, rank), levels)
				if err != nil {
					t.Fatalf("checkpoint step %d rank %d: %v", step, rank, err)
				}
				if done.Time() < now.Time() {
					t.Fatalf("checkpoint completed at %v, before its start %v", done.Time(), now.Time())
				}
				now = done
				oracle.checkpoint(step, rank, levels)
			case op < 0xA0: // seal a step's global container
				step := int(op&0x07) + 1
				done, err := m.SubmitCompleteGlobal(now, step, 0)
				if err != nil {
					t.Fatalf("complete step %d: %v", step, err)
				}
				now = ioev.After(now, done)
				oracle.seal(step)
			default: // fail a node
				node := int(op) % ranks
				m.FailNode(nodes[node].ID)
				oracle.failNode(node)
			}

			// The invariant: after every op, BestRestart matches the oracle.
			step, levels, ok := m.BestRestart()
			wantStep, wantLv, wantOK := oracle.best()
			if ok != wantOK {
				t.Fatalf("BestRestart ok=%v, oracle %v", ok, wantOK)
			}
			if !ok {
				continue
			}
			if step != wantStep {
				t.Fatalf("BestRestart step %d, oracle %d", step, wantStep)
			}
			for rank := range levels {
				if levels[rank] != wantLv[rank] {
					t.Fatalf("step %d rank %d level %v, oracle %v", step, rank, levels[rank], wantLv[rank])
				}
			}
			// Prove the plan: every rank restores its own bytes.
			for rank := 0; rank < ranks; rank++ {
				data, _, err := m.SubmitRestore(now, rank, step, levels[rank])
				if err != nil {
					t.Fatalf("restore step %d rank %d from %v: %v", step, rank, levels[rank], err)
				}
				if !bytes.Equal(data, payload(step, rank)) {
					t.Fatalf("restore step %d rank %d from %v: got %q, want %q",
						step, rank, levels[rank], data, payload(step, rank))
				}
			}
		}
	})
}
