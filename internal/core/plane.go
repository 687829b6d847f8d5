package core

import "repro/internal/sim"

// This file is the controller's shard-facing surface: the pieces of one
// control interval (prologue → per-job sampling → squish → epilogue)
// exported individually so the sharded, staggered, event-driven control
// plane (internal/ctlplane) can drive them one shard at a time. The
// periodic global sweep (step) composes exactly the same pieces, so the
// two paths cannot drift.

// EpochPrologue begins one control epoch: it counts the step, folds missed
// deadlines into the effective threshold, reaps exited jobs, and flushes
// actuations deferred by faults. The control plane calls it once per
// epoch, on the first shard's tick.
func (c *Controller) EpochPrologue(now sim.Time) { c.prologue(now) }

// SampleJob runs pass 1 for one job: sample progress, run the watchdog,
// recompute the desire. epochs is the number of control intervals since
// the job was last sampled (≥ 1) and dt the same gap in seconds; the
// estimators integrate over the whole gap, so a skipped-then-resampled job
// converges to the same allocation the periodic sweep would have reached.
// It reports whether the job participates in the squish.
func (c *Controller) SampleJob(j *Job, now sim.Time, epochs int64) bool {
	dt := c.cfg.Interval.Seconds() * float64(epochs)
	return c.sampleJob(j, now, dt, epochs)
}

// PeekPressure reads a job's current raw summed pressure without any side
// effects: no fault perturbation, no watchdog, no filter step. The
// event-driven plane thresholds this against the job's last sampled
// pressure to decide whether a dirty signal actually moved far enough to
// warrant a re-sample.
func (c *Controller) PeekPressure(j *Job, now sim.Time) float64 {
	var sum float64
	for _, t := range j.members {
		sum += c.reg.SummedPressure(t, now)
	}
	if sum > 0.5 {
		sum = 0.5
	}
	if sum < -0.5 {
		sum = -0.5
	}
	return sum
}

// SquishApply runs pass 2 over one shard's squishable jobs with the
// shard's slice of the machine capacity: squish desires to fit, clamp,
// raise quality exceptions, and actuate changes. The scratch buffers are
// the controller's own — shard ticks are serialized by the simulation, so
// sharing them is safe and keeps every tick allocation-free. It returns
// each job's new Allocated, index for index, in that scratch: valid until
// the next call, and read by the plane instead of the jobs themselves.
func (c *Controller) SquishApply(squishable []*Job, desires []int, weights []float64, capacity int, now sim.Time) []int {
	if capacity < 0 {
		capacity = 0
	}
	return c.squishApply(squishable, desires, weights, capacity, now)
}

// EpochEpilogue ends one control epoch: feed the governor the saturation
// signals aggregated across every shard and fire the per-step callback.
// desired and granted are the MaxProportion-clamped demand and granted
// proportion summed over all jobs. The control plane calls it once per
// epoch, on the last shard's tick, so governor rate deltas (misses,
// demotions) are per-epoch regardless of shard count.
func (c *Controller) EpochEpilogue(now sim.Time, desired, granted int) {
	if c.gov != nil {
		c.governorObserve(now, desired, granted)
	}
	if c.onStep != nil {
		c.onStep(now)
	}
}

// Admitted returns the proportion currently held by hard reservations
// (real-time and aperiodic jobs plus controller overhead) — what the
// control plane subtracts from the effective threshold to get the
// capacity available to adaptive jobs.
func (c *Controller) Admitted() int { return c.admitted }

// AdmitOverhead accounts an externally-spawned controller thread's
// reservation in the admission ledger, exactly as Start does for the
// single global controller thread. The control plane calls it once per
// shard thread it spawns in place of Start.
func (c *Controller) AdmitOverhead(proportion int) { c.admitted += proportion }

// MarkExternal records that an external control plane drives this
// controller; Start must not be called. The controller's own thread stays
// nil — the plane's shard threads are the overhead model instead.
func (c *Controller) MarkExternal() {
	if c.thread != nil {
		panic("core: controller already started; cannot hand to an external plane")
	}
	c.external = true
}

// External reports whether an external control plane drives this
// controller.
func (c *Controller) External() bool { return c.external }

// PrimaryChanges counts how often a surviving job's primary member changed
// (its first member exited and the next took over). A job's primary only
// changes here, so while this count and the kernel's migration count stand
// still, every job's primary thread sits on the CPU it last did.
func (c *Controller) PrimaryChanges() uint64 { return c.primaryChanges }

// OutOfPassWrites counts writes to a job's desire or allocation made
// outside SampleJob and SquishApply: admissions (AddRealTime,
// AddAperiodicRealTime, the adaptive classes' bootstrap) and Renegotiate.
// A control plane that caches desires and allocations refreshes them when
// this count moves.
func (c *Controller) OutOfPassWrites() uint64 { return c.outOfPassWrites }
