package core

import (
	"repro/internal/overload"
	"repro/internal/sim"
)

// This file is the controller's plane-facing surface: the pieces of one
// control interval (prologue → per-job sampling → squish → epilogue)
// exported individually so the control plane (internal/ctlplane) can drive
// them one shard at a time. Only the plane runs the loop; with its
// zero-value configuration (one periodic shard) it runs the paper's single
// global sweep.

// EpochPrologue begins one control epoch: it counts the step, folds missed
// deadlines into the effective threshold, and flushes actuations deferred
// by faults. The control plane calls it once per epoch, on the first
// shard's tick.
func (c *Controller) EpochPrologue(now sim.Time) {
	c.steps++

	// Missed deadlines shrink the effective threshold (spare capacity
	// grows), recovering slowly when the dispatcher is healthy.
	if misses := c.policy.MissedDeadlines(); misses > c.lastMisses {
		c.effectiveThreshold -= int(misses-c.lastMisses) * 5
		if c.effectiveThreshold < c.ceiling/2 {
			c.effectiveThreshold = c.ceiling / 2
		}
		c.lastMisses = misses
	} else if c.effectiveThreshold < c.ceiling {
		c.effectiveThreshold++
	}

	if len(c.delayed) > 0 {
		// Apply actuations deferred by DelayActuation faults. The pending
		// list is detached first: installing a reservation can run the
		// machine, and a program running inside it could trigger a fresh
		// deferral that must not alias this batch's backing array.
		pend := c.delayed
		c.delayed = nil
		for _, d := range pend {
			if c.jobOf(d.job.thread) != d.job {
				continue // job removed while the actuation was in flight
			}
			c.apply(d.job, d.prop, d.period)
		}
	}

	if len(c.retired) > 0 {
		// Pool last: the delayed-actuation guard above must still see
		// retired jobs as distinct objects, not reissued ones.
		c.flushRetired()
	}
}

// SampleJob runs pass 1 for one job: sample progress, run the watchdog,
// recompute the desire. epochs is the number of control intervals since
// the job was last sampled (≥ 1); the estimators integrate over the whole
// gap, so a skipped-then-resampled job converges to the same allocation
// the periodic sweep would have reached. It reports whether the job
// participates in the squish (false for reservation-holding classes).
//
// An adaptive job's usage marks advance to what the sample read. Nothing
// runs the machine between a plane's samples and its squish, so these are
// the values SquishApply would store; a plane that skips an unchanged
// squish (DESIGN.md §10.5) leaves them exact.
func (c *Controller) SampleJob(j *Job, now sim.Time, epochs int64) bool {
	dt := c.intervalSec * float64(epochs)
	switch j.class {
	case RealTime, AperiodicRealTime:
		j.desired = j.specified
		j.allocated = j.specified
		j.squished = false
		j.lastCPU = j.cpuTime()
		return false
	case RealRate:
		c.samples++
		p, ok := c.samplePressure(j, now)
		j.lastRaw = p
		c.watchdog(j, p, ok, now)
		switch {
		case j.degraded == LevelFallback:
			// Hold the last trusted allocation; the PID filter stays
			// frozen (anti-windup), so promotion resumes from the
			// pre-fault integral instead of slamming the allocation.
			j.desired = j.fallback
		case j.degraded == LevelMisc:
			j.desired = c.estimateMisc(j, dt, epochs)
		case ok:
			j.desired = c.estimate(j, p, dt, epochs)
		default:
			// Rejected sample on a healthy job: hold the desire and
			// freeze the filter rather than integrating garbage.
		}
	case Miscellaneous:
		c.samples++
		j.desired = c.estimateMisc(j, dt, epochs)
	case Interactive:
		c.samples++
		j.desired = c.estimateInteractive(j)
	}
	j.lastCPU, j.lastBlocked = j.usageMarks()
	return true
}

// PeekPressure reads a job's current raw summed pressure without any side
// effects: no fault perturbation, no watchdog, no filter step. The
// event-driven plane thresholds this against the job's last sampled
// pressure to decide whether a dirty signal actually moved far enough to
// warrant a re-sample.
func (c *Controller) PeekPressure(j *Job, now sim.Time) float64 {
	return clampPressure(c.memberPressure(j, now))
}

// SquishApply runs pass 2 over one shard's squishable jobs with the
// shard's slice of the machine capacity: squish desires to fit (Squish),
// raise quality exceptions, and actuate changes. The scratch buffers are
// the controller's own — shard ticks are serialized by the simulation, so
// sharing them is safe and keeps every tick allocation-free. It returns
// each job's new Allocated, index for index, in that scratch: valid until
// the next call, and read by the plane instead of the jobs themselves.
//
// After its actuations, each job's usage marks are re-read: an actuation
// can run the machine and charge CPU to a later job in the list.
func (c *Controller) SquishApply(squishable []*Job, desires []int, weights []float64, capacity int, now sim.Time) []int {
	if len(squishable) == 0 {
		return nil
	}
	allocs := grow(c.allocBuf, len(squishable))
	frozen := growBool(c.frozenBuf, len(squishable))
	c.allocBuf, c.frozenBuf = allocs, frozen
	Squish(allocs, frozen, desires, weights, capacity)
	for i, j := range squishable {
		if i%PrefetchBlock == 0 {
			c.Prefetch(squishable[i:min(i+PrefetchBlock, len(squishable))])
		}
		j.squished = allocs[i] < j.desired
		c.maybeRaiseQuality(j, allocs[i], now)
		if allocs[i] != j.allocated {
			c.actuate(j, allocs[i], j.period)
		}
		j.allocated = allocs[i]
		j.lastCPU, j.lastBlocked = j.usageMarks()
	}
	return allocs
}

// Squish computes the grants SquishApply gives a squish set into out,
// with frozen as scratch; both must have the desires' length. It is a pure
// function of the desires, weights and capacity, and touches no job. The
// capacity can go negative when missed deadlines shrink the effective
// threshold below what is already admitted; adaptive jobs then get
// nothing rather than panicking the squish. The non-zero floor only fits
// while floor·n ≤ capacity; past that point (thousands of adaptive jobs on
// one CPU) the machine simply lacks the ppt resolution, so the floor
// degrades gracefully. No grant exceeds MaxProportion.
func Squish(out []int, frozen []bool, desires []int, weights []float64, capacity int) {
	if capacity < 0 {
		capacity = 0
	}
	floor := MinProportion
	if floor*len(desires) > capacity {
		floor = capacity / len(desires)
	}
	squishInto(out, frozen, desires, weights, capacity, floor)
	for i, a := range out {
		out[i] = min(a, MaxProportion)
	}
}

// PrefetchBlock is how many jobs a batched pass reads ahead with Prefetch
// before it runs its per-job work on them: SquishApply's per-job loop,
// and the control plane's sample pass over the jobs due this epoch. A
// block of 128 lets a few dozen jobs' cache misses be in flight at once
// while its working set, a few lines per job, stays well inside L2.
const PrefetchBlock = 128

// Prefetch reads, for each job, the fields SampleJob and SquishApply reach
// first — the member list, the allocation and usage marks beside it — and
// every member's CPU time and block count, and keeps nothing of it. At
// 100k jobs a staleness sweep is bound by memory latency: each job is a
// dependent chain of loads (job → members → thread), and the per-job work
// between two chains is too long for the CPU to start the next job's
// misses early. One tight loop over a block of jobs issues all of the
// block's chains together, so the per-job work that follows finds its
// lines in cache. It changes no state the simulation reads, so a batched
// pass samples and actuates exactly as an unbatched one.
func (c *Controller) Prefetch(jobs []*Job) {
	var sum uint64
	for _, j := range jobs {
		sum += uint64(j.allocated) + uint64(j.lastCPU)
		for _, t := range j.members {
			sum += uint64(t.CPUTime()) + t.BlockedCount()
		}
	}
	// Stored, so the compiler cannot drop the loads.
	c.prefetched += sum
}

// EpochEpilogue ends one control epoch: feed the governor the saturation
// signals aggregated across every shard, execute its decision, and emit
// EventStep. The control plane calls it once per epoch, on the last
// shard's tick.
//
// desired and granted are the demand and granted proportion summed over
// every job. A job's desire is clamped to MaxProportion, the most it could
// ever be granted: a squished real-rate job's raw desire integrates toward
// DesireCap by design (that is how it wins the squish), so the un-clamped
// sum would read as brownout on any machine running one busy pipeline.
func (c *Controller) EpochEpilogue(now sim.Time, desired, granted int) {
	if c.cfg.Governor != nil {
		sig := overload.Signals{
			// The controller's own reservation is demand too; job desires
			// and grants are current as of this epoch's passes 1 and 2.
			Desired:  desired + c.cfg.Reservation.Proportion,
			Granted:  granted + c.cfg.Reservation.Proportion,
			Capacity: c.effectiveThreshold,
		}
		dec := c.cfg.Governor.Observe(sig)
		if dec.Changed() && c.wants(EventRung) {
			c.emit(Event{Kind: EventRung, Time: now, From: int8(dec.From), To: int8(dec.Rung),
				Desired: sig.Desired, Granted: sig.Granted, Capacity: sig.Capacity})
		}
		for n := dec.Shed; n > 0; n-- {
			if !c.shedOne(now, dec.Rung) {
				break
			}
		}
	}
	if c.wants(EventStep) {
		c.emit(Event{Kind: EventStep, Time: now})
	}
}

// Admitted returns the proportion currently held by hard reservations
// (real-time and aperiodic jobs plus controller overhead) — what the
// control plane subtracts from the effective threshold to get the
// capacity available to adaptive jobs.
func (c *Controller) Admitted() int { return c.admitted }

// AdmitOverhead accounts a control-plane thread's reservation in the
// admission ledger. The plane calls it once per shard thread it spawns;
// the shards split Config.Reservation between them.
func (c *Controller) AdmitOverhead(proportion int) { c.admitted += proportion }

// PrimaryChanges counts how often a surviving job's primary member changed
// (its first member exited and the next took over). A job's primary only
// changes here, so while this count and the kernel's migration count stand
// still, every job's primary thread sits on the CPU it last did.
func (c *Controller) PrimaryChanges() uint64 { return c.primaryChanges }

// OutOfPassWrites counts writes to a job's desire, allocation or
// importance made outside SampleJob and SquishApply: every admission
// (the first reservation addJob installs), Renegotiate and SetImportance.
// A control plane that caches desires and allocations refreshes them when
// this count moves, and one that skips an unchanged squish treats a move
// as changed squish weights.
func (c *Controller) OutOfPassWrites() uint64 { return c.outOfPassWrites }
