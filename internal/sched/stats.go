package sched

import (
	"fmt"
	"sync/atomic"
)

// Process-wide batch-queue counters, maintained with atomics: queue runs
// tick them from whatever sweep worker runs the owning scenario. They mirror
// engine's kernel counters and ioev's I/O counters — cheap monotonic
// aggregates for the -stats flag, never consulted by the scheduler itself
// (experiment metrics are computed deterministically from schedule state,
// not from these).
var global struct {
	submitted  atomic.Uint64
	started    atomic.Uint64
	backfilled atomic.Uint64
	shrunk     atomic.Uint64
	peakQueue  atomic.Uint64
	bfPasses   atomic.Uint64
	bfScans    atomic.Uint64
	bfScanned  atomic.Uint64
	failures   atomic.Uint64
	repairs    atomic.Uint64
	requeues   atomic.Uint64
	abandoned  atomic.Uint64
	// lostNodeUs accumulates lost virtual node-time in integer microseconds
	// (node-µs), so the float metric stays a single atomic add.
	lostNodeUs atomic.Uint64
}

// noteQueueRun folds one queue run's counters into the process-wide totals
// (one bulk update per run, not one per job).
func noteQueueRun(c queueCounters) {
	global.submitted.Add(uint64(c.submitted))
	global.started.Add(uint64(c.started))
	global.backfilled.Add(uint64(c.backfilled))
	global.shrunk.Add(uint64(c.shrunk))
	global.bfPasses.Add(uint64(c.bfPasses))
	global.bfScans.Add(uint64(c.bfScans))
	global.bfScanned.Add(uint64(c.bfScanned))
	global.failures.Add(uint64(c.failures))
	global.repairs.Add(uint64(c.repairs))
	global.requeues.Add(uint64(c.requeues))
	global.abandoned.Add(uint64(c.abandoned))
	if c.lostNodeSec > 0 {
		global.lostNodeUs.Add(uint64(c.lostNodeSec*1e6 + 0.5))
	}
	for {
		cur := global.peakQueue.Load()
		if uint64(c.peakQueue) <= cur || global.peakQueue.CompareAndSwap(cur, uint64(c.peakQueue)) {
			return
		}
	}
}

// Stats is a snapshot of the process-wide batch-queue counters.
type Stats struct {
	// Submitted is the number of jobs that entered a queue.
	Submitted uint64
	// Started is the number of job attempts granted nodes (a requeued job
	// counts once per attempt).
	Started uint64
	// Backfilled is the number of jobs started ahead of the queue head.
	Backfilled uint64
	// Shrunk is the number of malleable jobs started below requested size.
	Shrunk uint64
	// PeakQueue is the high-water mark of jobs waiting in any single queue.
	PeakQueue uint64
	// BackfillPasses counts backfill passes behind a blocked head;
	// BackfillScans counts those that scanned the queue, the rest having
	// been proven grantless by the demand index; BackfillScanned counts the
	// queue entries the scans visited.
	BackfillPasses  uint64
	BackfillScans   uint64
	BackfillScanned uint64
	// Failures and Repairs count facility node failures and completed
	// repairs; Requeues counts jobs killed and re-entered into a queue;
	// Abandoned counts jobs dropped after exhausting their retry budget.
	Failures  uint64
	Repairs   uint64
	Requeues  uint64
	Abandoned uint64
	// LostNodeSec is virtual node-time whose work did not survive kills.
	LostNodeSec float64
}

// Global snapshots the process-wide batch-queue counters.
func Global() Stats {
	return Stats{
		Submitted:       global.submitted.Load(),
		Started:         global.started.Load(),
		Backfilled:      global.backfilled.Load(),
		Shrunk:          global.shrunk.Load(),
		PeakQueue:       global.peakQueue.Load(),
		BackfillPasses:  global.bfPasses.Load(),
		BackfillScans:   global.bfScans.Load(),
		BackfillScanned: global.bfScanned.Load(),
		Failures:        global.failures.Load(),
		Repairs:         global.repairs.Load(),
		Requeues:        global.requeues.Load(),
		Abandoned:       global.abandoned.Load(),
		LostNodeSec:     float64(global.lostNodeUs.Load()) / 1e6,
	}
}

// String renders the counters in the -stats flag format.
func (s Stats) String() string {
	return fmt.Sprintf("jobs=%d started=%d backfilled=%d shrunk=%d peak_queue=%d bf_passes=%d bf_scans=%d bf_scanned=%d failures=%d repairs=%d requeues=%d abandoned=%d lost_node_s=%.3f",
		s.Submitted, s.Started, s.Backfilled, s.Shrunk, s.PeakQueue,
		s.BackfillPasses, s.BackfillScans, s.BackfillScanned,
		s.Failures, s.Repairs, s.Requeues, s.Abandoned, s.LostNodeSec)
}
