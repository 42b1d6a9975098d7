// Facility-driven rewind: the checkpoint/restart model that internal/sched's
// failure subsystem applies to killed batch jobs. The single-job replay
// driver in this package rewinds one xPic run through the full SCR stack;
// at facility scale (a thousand concurrent jobs, each killed potentially
// several times) the scheduler needs the same semantics as a closed-form
// policy rather than a nested simulation. FacilityCheckpoint is that form:
// periodic checkpoints with a fixed cost, restore on resume, and only
// *completed* checkpoints survive — mirroring scr's sealing rule that a
// checkpoint cut mid-write restores nothing.
package resilience

import (
	"math"

	"clusterbooster/internal/sched"
	"clusterbooster/internal/vclock"
)

// FacilityCheckpoint implements sched.RewindPolicy: a job checkpoints after
// every Every of useful work, paying Cost per checkpoint, and a resumed
// attempt pays Restore up front before re-executing. The zero value (Every
// 0) is the no-checkpoint policy: every kill restarts the job's work cold.
type FacilityCheckpoint struct {
	// Every is the useful work between checkpoints (0 = no checkpoints).
	Every vclock.Time
	// Cost is the virtual time one checkpoint takes.
	Cost vclock.Time
	// Restore is the virtual time a resumed attempt spends restoring state
	// before any useful work.
	Restore vclock.Time
}

var _ sched.RewindPolicy = FacilityCheckpoint{}

// AttemptRuntime is restore (when resuming) plus the work plus one Cost per
// interior checkpoint boundary. No checkpoint is taken at the very end of
// the attempt — completing the job seals it better than any checkpoint.
func (c FacilityCheckpoint) AttemptRuntime(work vclock.Time, resumed bool) vclock.Time {
	run := work
	if c.Every > 0 && work > 0 {
		n := int(math.Ceil(work.Seconds()/c.Every.Seconds())) - 1
		if n > 0 {
			run += vclock.Time(n) * c.Cost
		}
	}
	if resumed {
		run += c.Restore
	}
	return run
}

// Rewind splits a killed attempt's elapsed time: each fully completed
// checkpoint cycle (Every of work plus its Cost) protects its work; the
// restore head, the partial cycle past the last completed checkpoint, and a
// checkpoint cut mid-write are all lost. Lost is everything that buys the
// next attempt nothing: elapsed minus surviving work minus the cost of the
// checkpoints that protected it.
func (c FacilityCheckpoint) Rewind(elapsed vclock.Time, resumed bool) (surviving, lost vclock.Time) {
	e := elapsed
	if resumed {
		e -= c.Restore
	}
	if c.Every <= 0 || e <= 0 {
		return 0, elapsed
	}
	cycle := (c.Every + c.Cost).Seconds()
	n := vclock.Time(math.Floor(e.Seconds() / cycle))
	surviving = n * c.Every
	lost = elapsed - surviving - n*c.Cost
	return surviving, lost
}
