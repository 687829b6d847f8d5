package core

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/pid"
	"repro/internal/sim"
)

// Class is the controller's thread taxonomy (Figure 2 of the paper):
// whether proportion, period, and a progress metric were specified
// determines how the controller treats the job.
type Class int

// The four classes of Figure 2, plus the interactive heuristic class of
// §3.2 (a server listening on a tty, scheduled with a small period and a
// proportion estimated from its burst lengths).
const (
	// RealTime jobs specify both proportion and period: a reservation the
	// controller honors and never adapts.
	RealTime Class = iota
	// AperiodicRealTime jobs specify proportion only; the controller
	// assigns the default period.
	AperiodicRealTime
	// RealRate jobs supply a progress metric but no proportion; the
	// controller estimates the proportion, and the period is DefaultPeriod
	// unless one is given.
	RealRate
	// Miscellaneous jobs supply nothing; a constant-pressure heuristic
	// grows their allocation until they are satisfied or squished.
	Miscellaneous
	// Interactive jobs are known to wait on a tty-like wait queue; they
	// get a small period and a proportion estimated from typical burst
	// length before blocking.
	Interactive
)

func (c Class) String() string {
	switch c {
	case RealTime:
		return "real-time"
	case AperiodicRealTime:
		return "aperiodic-real-time"
	case RealRate:
		return "real-rate"
	case Miscellaneous:
		return "miscellaneous"
	case Interactive:
		return "interactive"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Adaptive reports whether the controller adjusts this class's proportion.
func (c Class) Adaptive() bool {
	return c == RealRate || c == Miscellaneous || c == Interactive
}

// Job is one controlled entity: in the paper's terms, "a collection of
// cooperating threads"; here one thread per job (the prototype's jobs map
// to threads the same way).
//
// The fields every sample and squish of an adaptive job reads or writes
// come first, with the members' backing array right behind them: at 100k
// jobs a staleness sweep is bound by cache misses, so the hot state of a
// job spans as few cache lines as the layout allows.
type Job struct {
	thread *kernel.Thread
	// members lists every thread of the job, members[0] == thread. "A job
	// is a collection of cooperating threads that may or may not be
	// contained in the same process" (§3); the allocation belongs to the
	// job and is split across its members.
	members []*kernel.Thread
	class   Class

	// importance is the weighted-fair-share weight (§3.3: "we have
	// extended this simple fair-share policy by associating an importance
	// with each thread"). Default 1.
	importance float64
	// period is the current period (specified or assigned).
	period sim.Duration

	// desired is the pre-squish allocation computed this interval.
	desired int
	// allocated is the post-squish actuated allocation.
	allocated int

	// lastCPU is the thread's cpu time at the previous control interval,
	// for usage measurement (the reclamation path of Figure 4).
	lastCPU sim.Duration
	// usageEWMA smooths used/granted over ≈10 intervals. A thread burns
	// its per-period budget in bursts and naps the rest of the period, so
	// a single interval's usage aliases against the nap cycle; the
	// reclamation decision needs the average.
	usageEWMA float64
	// usedPPT smooths the thread's absolute CPU consumption, expressed in
	// parts-per-thousand of the machine, over the same horizon. The
	// miscellaneous heuristic sizes desire from it.
	usedPPT float64
	// lastBlocked is the thread's voluntary block count at the previous
	// interval, for the interactive burst estimator.
	lastBlocked uint64

	// overloadStreak counts consecutive intervals at saturated positive
	// pressure while squished, used to raise quality exceptions.
	overloadStreak int

	// squished reports whether the last interval reduced this job below
	// its desire.
	squished bool
	// reclaiming marks a miscellaneous job whose smoothed usage fell
	// below the reclaim threshold; hysteresis keeps the heuristic from
	// dithering at the boundary.
	reclaiming bool
	// haveSample gates the watchdog's first comparison (see lastSample).
	haveSample bool
	// slot is the job object's dense index among every Job the controller
	// has carved: assigned when the object is cut from a slab chunk and
	// kept across recycling (see Slot).
	slot int32

	// memberBuf is the initial backing array of members, inside the job so
	// a small job's member walk stays on the job's own cache lines.
	memberBuf [4]*kernel.Thread

	// specified holds the user-supplied proportion for real-time and
	// aperiodic real-time jobs (parts per thousand).
	specified int

	// g is the per-job PID pressure filter (the paper's G).
	g *pid.Controller
	// lastRaw is the most recent raw summed pressure (before G), used to
	// detect saturated queues for quality exceptions.
	lastRaw float64

	// cpuBlockMark is the thread's cpu time at the last completed burst;
	// the CPU consumed between block events, divided by the number of
	// blocks, is the true per-burst cost even when a burst spans many
	// control intervals.
	cpuBlockMark sim.Duration
	// burstEstimate is the low-passed CPU-per-burst estimate for
	// interactive jobs.
	burstEstimate sim.Duration

	// degraded is the job's rung on the graceful-degradation ladder
	// (LevelRealRate when healthy). Only real-rate jobs descend.
	degraded DegradeLevel
	// flatStreak counts consecutive control intervals with a flat or
	// rejected progress sample; recoverStreak counts consecutive moving
	// samples while degraded. The watchdog trades them off.
	flatStreak    int
	recoverStreak int
	// lastSample is the previous accepted pressure sample, for the
	// watchdog's flat-signal comparison.
	lastSample float64
	// fallback is the fixed proportion held at LevelFallback: the last
	// allocation granted while the signal was still trusted.
	fallback int

	// stats
	actuations uint64

	// freeNext links the object into the controller's free list while
	// pooled (recycle mode only).
	freeNext *Job

	// _ keeps Job at 256 bytes, four whole cache lines, so every job of a
	// slab chunk starts on a line boundary and a sampled job touches
	// four lines, not five.
	_ [8]byte
}

// Thread returns the job's primary kernel thread.
func (j *Job) Thread() *kernel.Thread { return j.thread }

// Slot returns the job object's dense slot index. Slots are numbered
// from 0 in the order the controller carves Job objects, and a pooled job
// keeps its slot when reissued, so at any instant no two controlled jobs
// share one. The control plane indexes its per-job table by it.
func (j *Job) Slot() int { return int(j.slot) }

// Members returns all of the job's threads. The slice must not be
// modified.
func (j *Job) Members() []*kernel.Thread { return j.members }

// cpuTime sums the CPU consumed by every member.
func (j *Job) cpuTime() sim.Duration {
	var total sim.Duration
	for _, t := range j.members {
		total += t.CPUTime()
	}
	return total
}

// usageMarks sums the members' CPU time and voluntary blocks in one walk.
func (j *Job) usageMarks() (cpu sim.Duration, blocked uint64) {
	for _, t := range j.members {
		cpu += t.CPUTime()
		blocked += t.BlockedCount()
	}
	return cpu, blocked
}

// blockedCount sums voluntary blocks across members.
func (j *Job) blockedCount() uint64 {
	var total uint64
	for _, t := range j.members {
		total += t.BlockedCount()
	}
	return total
}

// Class returns the job's taxonomy class.
func (j *Job) Class() Class { return j.class }

// Importance returns the job's weighted-fair-share weight.
func (j *Job) Importance() float64 { return j.importance }

// Allocated returns the proportion (ppt) actuated in the last interval.
func (j *Job) Allocated() int { return j.allocated }

// Desired returns the pre-squish proportion computed in the last interval.
func (j *Job) Desired() int { return j.desired }

// Period returns the job's current period.
func (j *Job) Period() sim.Duration { return j.period }

// Squished reports whether overload reduced the job below its desire in
// the last interval.
func (j *Job) Squished() bool { return j.squished }

// UsageMarks returns the members' summed CPU time and voluntary block
// count as of the job's last sample or squish: the marks the next sample
// measures usage from.
func (j *Job) UsageMarks() (cpu sim.Duration, blocked uint64) { return j.lastCPU, j.lastBlocked }

// Actuations returns how many times the controller changed this job's
// reservation.
func (j *Job) Actuations() uint64 { return j.actuations }

// Pressure returns the most recent PID output (the paper's Q_t). Only
// real-rate jobs carry the filter; other classes read zero.
func (j *Job) Pressure() float64 {
	if j.g == nil {
		return 0
	}
	return j.g.Output()
}

// RawPressure returns the most recent raw summed pressure sample (before
// the PID filter) — the signal the event-driven plane thresholds against.
func (j *Job) RawPressure() float64 { return j.lastRaw }

// Degraded returns the job's rung on the graceful-degradation ladder
// (LevelRealRate when healthy).
func (j *Job) Degraded() DegradeLevel { return j.degraded }
