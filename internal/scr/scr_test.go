package scr

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"clusterbooster/internal/beegfs"
	"clusterbooster/internal/fabric"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/machine"
	"clusterbooster/internal/nvme"
	"clusterbooster/internal/vclock"
)

func testMgr(t *testing.T, ranks int, cfg Config) (*Manager, *machine.System) {
	t.Helper()
	sys := machine.New(ranks, 0)
	net := fabric.New(sys)
	fs := beegfs.New(net)
	nodes := sys.Module(machine.Cluster)[:ranks]
	devs := map[int]*nvme.Device{}
	for _, n := range nodes {
		devs[n.ID] = nvme.New(nvme.P3700())
	}
	m, err := New(cfg, net, fs, nodes, devs)
	if err != nil {
		t.Fatal(err)
	}
	return m, sys
}

// restore fetches one rank's checkpoint from instant 0.
func restore(m *Manager, rank, step int, lv Level) ([]byte, error) {
	data, _, err := m.SubmitRestore(ioev.At(0), rank, step, lv)
	return data, err
}

// ckptAll checkpoints every rank of a step from the ready instant, seals
// the global container if the plan has one, and returns when it is all
// durable.
func ckptAll(t *testing.T, m *Manager, step int, data []byte, ready vclock.Time) vclock.Time {
	t.Helper()
	levels := m.BeginCheckpoint(step)
	done := ioev.At(ready)
	for rank := 0; rank < len(m.nodes); rank++ {
		op, err := m.SubmitCheckpoint(ioev.At(ready), rank, step, data, levels)
		if err != nil {
			t.Fatal(err)
		}
		done = ioev.After(done, op)
	}
	if slices.Contains(levels, LevelGlobal) {
		op, err := m.SubmitCompleteGlobal(done, step, 0)
		if err != nil {
			t.Fatal(err)
		}
		done = ioev.After(done, op)
	}
	return done.Time()
}

func TestLevelCadence(t *testing.T) {
	m, _ := testMgr(t, 2, Config{BuddyEvery: 2, GlobalEvery: 4})
	var seq [][]Level
	for i := 1; i <= 4; i++ {
		seq = append(seq, m.BeginCheckpoint(i))
	}
	if len(seq[0]) != 1 || seq[0][0] != LevelLocal {
		t.Errorf("ckpt 1 levels = %v, want [local]", seq[0])
	}
	if len(seq[1]) != 2 || seq[1][1] != LevelBuddy {
		t.Errorf("ckpt 2 levels = %v, want [local buddy]", seq[1])
	}
	if len(seq[3]) != 3 || seq[3][2] != LevelGlobal {
		t.Errorf("ckpt 4 levels = %v, want [local buddy global]", seq[3])
	}
}

func TestLocalRestore(t *testing.T) {
	m, _ := testMgr(t, 2, Config{})
	data := []byte("state at step 10")
	ckptAll(t, m, 10, data, 0)
	step, levels, ok := m.BestRestart()
	if !ok || step != 10 {
		t.Fatalf("best restart = %d, %v", step, ok)
	}
	for rank := 0; rank < 2; rank++ {
		if levels[rank] != LevelLocal {
			t.Errorf("rank %d level = %v, want local", rank, levels[rank])
		}
		got, op, err := m.SubmitRestore(ioev.At(0), rank, step, levels[rank])
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("restore rank %d: %q, %v", rank, got, err)
		}
		if op.Time() <= 0 {
			t.Error("restore was free")
		}
	}
}

func TestBuddySurvivesNodeFailure(t *testing.T) {
	m, sys := testMgr(t, 3, Config{BuddyEvery: 1})
	data := []byte("redundant state")
	ckptAll(t, m, 5, data, 0)

	// Kill node of rank 0: its local checkpoint dies, but its buddy copy
	// lives on rank 1's node.
	m.FailNode(sys.Node(0).ID)
	step, levels, ok := m.BestRestart()
	if !ok || step != 5 {
		t.Fatalf("no restart after single node failure: %v", ok)
	}
	if levels[0] != LevelBuddy {
		t.Errorf("rank 0 restores from %v, want buddy", levels[0])
	}
	if levels[1] == LevelBuddy {
		// rank 1's local copy was untouched.
		t.Errorf("rank 1 should restore locally, got %v", levels[1])
	}
	got, err := restore(m, 0, step, LevelBuddy)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("buddy restore: %q, %v", got, err)
	}
}

func TestGlobalSurvivesEverything(t *testing.T) {
	m, sys := testMgr(t, 3, Config{BuddyEvery: 0, GlobalEvery: 1})
	data := []byte("globally safe")
	ckptAll(t, m, 7, data, 0)
	// Lose every node.
	for _, n := range sys.Module(machine.Cluster)[:3] {
		m.FailNode(n.ID)
	}
	step, levels, ok := m.BestRestart()
	if !ok || step != 7 {
		t.Fatalf("global checkpoint lost: ok=%v", ok)
	}
	for rank := 0; rank < 3; rank++ {
		if levels[rank] != LevelGlobal {
			t.Errorf("rank %d level = %v, want global", rank, levels[rank])
		}
		got, err := restore(m, rank, step, LevelGlobal)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("global restore rank %d: %v", rank, err)
		}
	}
}

func TestAllLevelsLostMeansNoRestart(t *testing.T) {
	m, sys := testMgr(t, 2, Config{}) // local only
	ckptAll(t, m, 3, []byte("x"), 0)
	m.FailNode(sys.Node(0).ID)
	if _, _, ok := m.BestRestart(); ok {
		t.Fatal("restart offered although rank 0's only copy died")
	}
}

func TestBestRestartPicksNewest(t *testing.T) {
	m, sys := testMgr(t, 2, Config{BuddyEvery: 1})
	ckptAll(t, m, 10, []byte("old"), 0)
	ckptAll(t, m, 20, []byte("new"), 0)
	step, _, ok := m.BestRestart()
	if !ok || step != 20 {
		t.Fatalf("best = %d, want 20", step)
	}
	// After losing rank-0's node, step 20 is still recoverable via buddy.
	m.FailNode(sys.Node(0).ID)
	step, levels, ok := m.BestRestart()
	if !ok || step != 20 {
		t.Fatalf("after failure best = %d (%v), want 20", step, ok)
	}
	if levels[0] != LevelBuddy {
		t.Errorf("rank 0 level %v", levels[0])
	}
}

func TestLevelCosts(t *testing.T) {
	// Local must be cheapest, global most expensive, for a sizeable state.
	// The ordering is bandwidth-dominated, so -short keeps full coverage of
	// the property on an eighth of the payload.
	size := 64 << 20
	if testing.Short() {
		size = 8 << 20
	}
	data := make([]byte, size)
	mL, _ := testMgr(t, 4, Config{})
	tLocal := ckptAll(t, mL, 1, data, 0)
	mB, _ := testMgr(t, 4, Config{BuddyEvery: 1})
	tBuddy := ckptAll(t, mB, 1, data, 0)
	mG, _ := testMgr(t, 4, Config{GlobalEvery: 1})
	tGlobal := ckptAll(t, mG, 1, data, 0)
	if !(tLocal < tBuddy && tBuddy < tGlobal) {
		t.Errorf("level cost ordering violated: local %v, buddy %v, global %v", tLocal, tBuddy, tGlobal)
	}
}

func TestSingleNodeJobSkipsBuddy(t *testing.T) {
	m, _ := testMgr(t, 1, Config{BuddyEvery: 1})
	levels := m.BeginCheckpoint(1)
	op, err := m.SubmitCheckpoint(ioev.At(0), 0, 1, []byte("solo"), levels)
	if err != nil {
		t.Fatal(err)
	}
	if op.Time() <= 0 {
		t.Error("no cost at all")
	}
	// Restart must come from local (no buddy recorded).
	_, lv, ok := m.BestRestart()
	if !ok || lv[0] != LevelLocal {
		t.Fatalf("levels = %v, ok=%v", lv, ok)
	}
}

func TestOptimalInterval(t *testing.T) {
	// Young/Daly: δ=2s, M=10000s → √(2·2·10000) = 200s.
	got := OptimalInterval(2*vclock.Second, 10000*vclock.Second)
	if math.Abs(got.Seconds()-200) > 1e-9 {
		t.Errorf("interval = %v, want 200s", got)
	}
	if OptimalInterval(0, vclock.Second) != 0 {
		t.Error("zero cost should yield zero interval")
	}
	// Monotonicity: longer MTBF → longer interval.
	if OptimalInterval(vclock.Second, 100*vclock.Second) >= OptimalInterval(vclock.Second, 1000*vclock.Second) {
		t.Error("interval not monotone in MTBF")
	}
}

func TestCheckpointWithoutBegin(t *testing.T) {
	m, _ := testMgr(t, 1, Config{})
	if _, err := m.SubmitCheckpoint(ioev.At(0), 0, 99, []byte("x"), []Level{LevelLocal}); err == nil {
		t.Fatal("checkpoint without BeginCheckpoint accepted")
	}
}

func TestManagerValidation(t *testing.T) {
	sys := machine.New(2, 0)
	net := fabric.New(sys)
	nodes := sys.Module(machine.Cluster)
	if _, err := New(Config{}, net, nil, nil, nil); err == nil {
		t.Error("no ranks accepted")
	}
	if _, err := New(Config{GlobalEvery: 1}, net, nil, nodes, map[int]*nvme.Device{}); err == nil {
		t.Error("global level without fs accepted")
	}
	if _, err := New(Config{}, net, nil, nodes, map[int]*nvme.Device{}); err == nil {
		t.Error("missing NVMe devices accepted")
	}
}

func TestManyStepsRetained(t *testing.T) {
	m, _ := testMgr(t, 2, Config{BuddyEvery: 1})
	for s := 1; s <= 10; s++ {
		ckptAll(t, m, s, []byte(fmt.Sprintf("step %d", s)), 0)
	}
	step, _, ok := m.BestRestart()
	if !ok || step != 10 {
		t.Fatalf("best = %d", step)
	}
	got, err := restore(m, 1, 4, LevelLocal)
	if err != nil || string(got) != "step 4" {
		t.Fatalf("old step restore: %q %v", got, err)
	}
}

// TestCheckpointKeepsCallerBuffer pins SubmitCheckpoint's ownership
// contract: the local and buddy levels keep the caller's buffer instead of
// a copy, so sixteen 1 MiB checkpoints allocate less than one of them.
func TestCheckpointKeepsCallerBuffer(t *testing.T) {
	m, _ := testMgr(t, 2, Config{BuddyEvery: 1})
	data := make([]byte, 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for s := 1; s <= 8; s++ {
		ckptAll(t, m, s, data, 0)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(len(data)) {
		t.Fatalf("16 checkpoints of %d bytes allocated %d bytes", len(data), got)
	}
}

func TestLocalAndBuddyRestoresAreIndependent(t *testing.T) {
	// A step checkpointed at both levels stores one snapshot for both;
	// every restore must still hand out its own copy.
	m, _ := testMgr(t, 2, Config{BuddyEvery: 1})
	want := []byte("state at step 3")
	ckptAll(t, m, 3, append([]byte(nil), want...), 0)
	restore := func(lv Level) []byte {
		t.Helper()
		got, _, err := m.SubmitRestore(ioev.At(vclock.Second), 0, 3, lv)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	local, buddy := restore(LevelLocal), restore(LevelBuddy)
	if !bytes.Equal(local, want) || !bytes.Equal(buddy, want) {
		t.Fatalf("local %q, buddy %q, want %q", local, buddy, want)
	}
	local[0] = 'Y'
	if !bytes.Equal(buddy, want) {
		t.Errorf("mutating the local restore changed the buddy restore: %q", buddy)
	}
	if again := restore(LevelLocal); !bytes.Equal(again, want) {
		t.Errorf("mutating a restore changed the stored checkpoint: %q", again)
	}
	if again := restore(LevelBuddy); !bytes.Equal(again, want) {
		t.Errorf("mutating a restore changed the stored buddy copy: %q", again)
	}
}
