// Package core implements the paper's contribution: a feedback-driven
// proportion allocator for real-rate scheduling. The controller
// periodically samples each job's progress (via the symbiotic-interface
// registry), filters the summed progress pressures through a per-job PID
// (the G of Figure 3), converts cumulative pressure into a proportion
// (Figure 4: P′ = k·Q_t, or P − C when the allocation was demonstrably too
// generous), performs admission control for real-time reservations, and
// squishes real-rate/miscellaneous allocations under overload using
// importance-weighted fair share.
//
// The controller holds the loop's state and arithmetic; the control plane
// (internal/ctlplane) drives it from simulated threads with their own
// reservation, so its overhead — base cost plus a per-controlled-job cost
// each interval — competes for the CPU exactly as the paper's user-level
// prototype did (Figure 5 measures precisely this).
package core

import (
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/overload"
	"repro/internal/pid"
	"repro/internal/progress"
	"repro/internal/rbs"
	"repro/internal/sim"
)

const pptDenom = rbs.PPT

// Config holds the controller's tuning. Zero fields take the defaults the
// experiments use (see DefaultConfig).
type Config struct {
	// Interval is the controller period. The prototype samples at 100 Hz
	// (10 ms) — "keeping the sampling rate reasonably high (100 Hz in our
	// prototype)".
	Interval sim.Duration
	// OverloadThreshold is the admission/squish ceiling in ppt. The paper
	// reserves spare capacity "to cover the overhead of scheduling and
	// interrupt handling" by setting it below 1.
	OverloadThreshold int
	// K is the pressure-to-proportion scaling factor (the k of Figure 4),
	// in ppt per unit of cumulative pressure.
	K float64
	// PID configures the per-job pressure filter G.
	PID pid.Config
	// ReclaimFraction triggers the P−C reduction: a job that used less
	// than this fraction of its allocation is "too generous".
	ReclaimFraction float64
	// ReclaimC is the constant reduction (ppt) applied to over-generous
	// allocations.
	ReclaimC int
	// MinProportion is the non-zero allocation floor: "It avoids
	// starvation by ensuring that every job in the system is assigned a
	// non-zero percentage of the CPU."
	MinProportion int
	// MaxProportion caps any single adaptive job's actuated allocation.
	MaxProportion int
	// DesireCap bounds the pre-squish desire. It is deliberately far above
	// MaxProportion: under overload a real-rate job's desire keeps growing
	// past the constant desire of miscellaneous hogs ("the consumer's
	// [pressure] grows as it falls further behind", §4.2), and the squish
	// arbitrates on desires — so desires must be able to wind up beyond
	// what any one job could actually be granted.
	DesireCap int
	// DefaultPeriod is assigned when a job does not specify one (30 ms in
	// the prototype).
	DefaultPeriod sim.Duration
	// MiscPressure is the constant pressure applied to miscellaneous jobs.
	MiscPressure float64
	// InteractivePeriod is the small period given to interactive jobs.
	InteractivePeriod sim.Duration
	// InteractiveHeadroom scales the burst estimate into a proportion.
	InteractiveHeadroom float64
	// InteractiveImportance is the default fair-share weight of
	// interactive jobs. Their desire is need-based (burst/period) rather
	// than wound-up, so without extra weight a greedy miscellaneous hog
	// squishes them below their bursts; the paper singles interactive
	// jobs out for "reasonable performance" (§1, §3.2).
	InteractiveImportance float64

	// PeriodAdaptation enables the §3.3 period heuristic (disabled in all
	// the paper's experiments, and by default here).
	PeriodAdaptation bool
	// MinBudgetTicks is the quantization target: budgets below this many
	// dispatch ticks double the period.
	MinBudgetTicks int
	// MinPeriod/MaxPeriod bound period adaptation.
	MinPeriod, MaxPeriod sim.Duration
	// JitterThreshold is the per-period fill oscillation (fraction of the
	// buffer) above which the period halves.
	JitterThreshold float64

	// BaseCost and PerJobCost model the controller's own execution cost:
	// each interval it computes BaseCost + PerJobCost per controlled job.
	// Calibrated to Figure 5: y = .00066x + .00057 of a 400 MHz CPU at
	// 100 Hz means ≈2280 + 2640·n cycles.
	BaseCost, PerJobCost sim.Cycles
	// Reservation is the controller thread's own reservation.
	Reservation rbs.Reservation

	// OverloadStreak is how many consecutive saturated, squished intervals
	// raise a quality exception.
	OverloadStreak int

	// WatchdogIntervals is how many consecutive flat (or rejected)
	// progress samples demote a real-rate job one rung down the
	// degradation ladder. Negative disables the watchdog.
	WatchdogIntervals int
	// WatchdogRecovery is how many consecutive moving samples promote a
	// degraded job one rung back up.
	WatchdogRecovery int
}

// DefaultConfig returns the calibration used throughout the experiments.
func DefaultConfig() Config {
	return Config{
		Interval:          10 * sim.Millisecond,
		OverloadThreshold: 900,
		K:                 2000,
		// Gains sized so the proportional leg alone can double a mid-range
		// allocation within a few control intervals, while the integral
		// leg carries the steady-state allocation. The asymmetric integral
		// range is the anti-windup guard: a long queue-empty stretch must
		// not bank negative pressure that would delay the response to the
		// next burst.
		PID: pid.Config{
			Kp: 1.0, Ki: 4.0, Kd: 0.05,
			IntegralLo: -0.02, IntegralHi: 0.5,
			DerivativeTau: 0.03,
			InputTau:      0.04,
			OutLo:         0, OutHi: 2.0,
		},
		ReclaimFraction:       0.5,
		ReclaimC:              20,
		MinProportion:         5,
		MaxProportion:         950,
		DesireCap:             4000,
		DefaultPeriod:         30 * sim.Millisecond,
		MiscPressure:          0.4,
		InteractivePeriod:     30 * sim.Millisecond,
		InteractiveHeadroom:   1.5,
		InteractiveImportance: 8,
		PeriodAdaptation:      false,
		MinBudgetTicks:        2,
		MinPeriod:             5 * sim.Millisecond,
		MaxPeriod:             200 * sim.Millisecond,
		JitterThreshold:       0.3,
		BaseCost:              2280,
		PerJobCost:            2640,
		Reservation:           rbs.Reservation{Proportion: 50, Period: 10 * sim.Millisecond},
		OverloadStreak:        25,
		WatchdogIntervals:     50,
		WatchdogRecovery:      5,
	}
}

// FaultInjector is the controller's slice of the fault-injection seam (see
// internal/faults): consulted when sampling each real-rate job's pressure
// and before each actuation. Nil (the default) keeps both hot paths a
// single branch.
type FaultInjector interface {
	// PerturbPressure corrupts a job's summed progress pressure; it may
	// return NaN/±Inf, which the sanitizer then rejects.
	PerturbPressure(target string, now sim.Time, p float64) float64
	// ActuationFault reports whether the actuation for the named job must
	// be dropped or deferred to the next control interval.
	ActuationFault(target string, now sim.Time) (drop, delay bool)
}

// delayedActuation is a reservation push deferred by a DelayActuation
// fault, applied at the start of the next control interval.
type delayedActuation struct {
	job    *Job
	prop   int
	period sim.Duration
}

// Controller is the feedback-driven proportion allocator.
type Controller struct {
	cfg Config
	// intervalSec is cfg.Interval in seconds, read by every sample.
	intervalSec float64
	kern        *kernel.Kernel
	policy      *rbs.Policy
	reg         *progress.Registry

	jobs []*Job
	// jobAt maps a kernel thread slot (kernel.Thread.Slot) to the job the
	// thread belongs to, nil for uncontrolled slots. Entries are cleared
	// the moment a member leaves its job, before the kernel can reissue
	// the slot.
	jobAt []*Job

	// admitted sums the proportions of real-time and aperiodic real-time
	// reservations plus the controller's own.
	admitted int
	// adaptive counts jobs of adaptive classes, so the admission headroom
	// (available) is O(1) instead of a scan over every job.
	adaptive int
	// ncpu is the machine's CPU count; ceiling is the machine-wide
	// admission/squish ceiling, OverloadThreshold × ncpu. The controller
	// is phrased against capacity in ppt, so the same control law drives
	// one CPU or many — only the ceiling scales.
	ncpu    int
	ceiling int
	// effectiveThreshold shrinks when the dispatcher reports missed
	// deadlines ("the RBS ... notifies the controller which can increase
	// the amount of spare capacity by reducing the admission threshold").
	effectiveThreshold int
	lastMisses         uint64

	// subs are the event sinks (see Subscribe); subscribed is the OR of
	// their kinds, so every emission site is one bit test.
	subs       []subscription
	subscribed EventKind

	// faults is the optional fault injector; nil in healthy runs.
	faults FaultInjector
	// health accumulates the fault-tolerance counters.
	health Health
	// delayed holds actuations deferred by DelayActuation faults until
	// the next control interval.
	delayed []delayedActuation

	// gov is the optional supervisory overload governor (the outer control
	// loop over this inner one); nil keeps every hot path a single branch.
	gov *overload.Governor
	// sloProbe, when set, supplies the recent p99 wake→dispatch latency for
	// the governor's SLO-driven trip point.
	sloProbe func() sim.Duration
	// lastEpochAt is when the governor last observed an epoch's signals.
	// AdmissionVeto compares it against the clock to detect a stalled
	// control plane (see the stall guard there).
	lastEpochAt sim.Time
	// govLastMisses/govLastDemotions turn the cumulative miss and demotion
	// totals into per-interval deltas for the governor's signals.
	govLastMisses    uint64
	govLastDemotions uint64

	steps      uint64
	actuations uint64
	// samples counts adaptive-job feedback samples (pass-1 evaluations),
	// the denominator of the event-driven mode's skip ratio.
	samples uint64

	// reapedExits is the kernel's exit count at the last reap scan. A
	// member turns StateExited only through a kernel exit, so while the
	// count stands still the scan cannot find anything — unless a thread
	// that had already exited joined a job since, which sets reapDue.
	reapedExits uint64
	reapDue     bool
	// primaryChanges counts changes of a surviving job's primary member
	// (members[0]); with the kernel's migration count it is everything
	// that can move a job's control-plane home.
	primaryChanges uint64
	// outOfPassWrites counts writes to a job's desire or allocation made
	// outside the sample and squish passes (admission, bootstrap,
	// Renegotiate), so a control plane that caches them knows when to
	// refresh.
	outOfPassWrites uint64

	// Persistent squish scratch: SquishApply reslices these instead of
	// allocating, so a control epoch is allocation-free after warm-up
	// (asserted by TestControllerStepZeroAlloc).
	allocBuf  []int
	frozenBuf []bool

	// recycle pools Job objects, their PID filters, and their pressure
	// series across remove/add cycles; see SetRecycle.
	recycle bool
	// jobSlab backs new Job allocation; freeJob heads the free list of
	// recycled ones. retired parks removed jobs until the next epoch
	// prologue flushes them to the free list: a job removed mid-step (a
	// wake during actuation can dispatch a program that exits) may still
	// be referenced by that step's squishable scratch, so reissue must
	// wait for the epoch boundary.
	jobSlab []Job
	// carvedJobs counts the Job objects cut from slab chunks so far; it
	// is the next object's slot index (Job.Slot).
	carvedJobs int32
	freeJob    *Job
	retired    []*Job
	// freePID pools the per-job PID filters; every pooled filter was
	// built from cfg.PID, so Reset restores the fresh-filter state.
	freePID []*pid.Controller
	// fillNames interns thread-name → "<name>.pressure" so an admission
	// storm of interned-name threads concatenates each distinct name once.
	fillNames map[string]string
	// vetoErr memoizes one OverloadError per rung: the rung string and
	// retry-after hint are pure per rung at a fixed interval, and callers
	// only ever read the fields, so an admission storm shares one object
	// per rung instead of allocating per refusal.
	vetoErr [overload.Freeze + 1]*OverloadError
}

// New creates a controller for the given machine, dispatcher, and progress
// registry. A control plane (internal/ctlplane) drives its epochs.
func New(kern *kernel.Kernel, policy *rbs.Policy, reg *progress.Registry, cfg Config) *Controller {
	def := DefaultConfig()
	if cfg.Interval <= 0 {
		cfg.Interval = def.Interval
	}
	if cfg.OverloadThreshold == 0 {
		cfg.OverloadThreshold = def.OverloadThreshold
	}
	if cfg.K == 0 {
		cfg.K = def.K
	}
	if cfg.PID == (pid.Config{}) {
		cfg.PID = def.PID
	}
	if cfg.ReclaimFraction == 0 {
		cfg.ReclaimFraction = def.ReclaimFraction
	}
	if cfg.ReclaimC == 0 {
		cfg.ReclaimC = def.ReclaimC
	}
	if cfg.MinProportion == 0 {
		cfg.MinProportion = def.MinProportion
	}
	if cfg.MaxProportion == 0 {
		cfg.MaxProportion = def.MaxProportion
	}
	if cfg.DesireCap == 0 {
		cfg.DesireCap = def.DesireCap
	}
	if cfg.DefaultPeriod == 0 {
		cfg.DefaultPeriod = def.DefaultPeriod
	}
	if cfg.MiscPressure == 0 {
		cfg.MiscPressure = def.MiscPressure
	}
	if cfg.InteractivePeriod == 0 {
		cfg.InteractivePeriod = def.InteractivePeriod
	}
	if cfg.InteractiveHeadroom == 0 {
		cfg.InteractiveHeadroom = def.InteractiveHeadroom
	}
	if cfg.InteractiveImportance == 0 {
		cfg.InteractiveImportance = def.InteractiveImportance
	}
	if cfg.MinBudgetTicks == 0 {
		cfg.MinBudgetTicks = def.MinBudgetTicks
	}
	if cfg.MinPeriod == 0 {
		cfg.MinPeriod = def.MinPeriod
	}
	if cfg.MaxPeriod == 0 {
		cfg.MaxPeriod = def.MaxPeriod
	}
	if cfg.JitterThreshold == 0 {
		cfg.JitterThreshold = def.JitterThreshold
	}
	if cfg.BaseCost == 0 {
		cfg.BaseCost = def.BaseCost
	}
	if cfg.PerJobCost == 0 {
		cfg.PerJobCost = def.PerJobCost
	}
	if cfg.Reservation == (rbs.Reservation{}) {
		cfg.Reservation = def.Reservation
	}
	if cfg.OverloadStreak == 0 {
		cfg.OverloadStreak = def.OverloadStreak
	}
	if cfg.WatchdogIntervals == 0 {
		cfg.WatchdogIntervals = def.WatchdogIntervals
	}
	if cfg.WatchdogRecovery == 0 {
		cfg.WatchdogRecovery = def.WatchdogRecovery
	}
	ncpu := kern.NumCPUs()
	return &Controller{
		cfg:                cfg,
		intervalSec:        cfg.Interval.Seconds(),
		kern:               kern,
		policy:             policy,
		reg:                reg,
		ncpu:               ncpu,
		ceiling:            cfg.OverloadThreshold * ncpu,
		effectiveThreshold: cfg.OverloadThreshold * ncpu,
	}
}

// Config returns the resolved configuration.
func (c *Controller) Config() Config { return c.cfg }

// SetRecycle turns controller-state recycling on or off. When on, a
// removed job's object — with its PID filter and bounded pressure series —
// parks on a retired list and is reissued to a later admission after the
// next epoch prologue, so churn-heavy workloads add and remove jobs
// without growing the heap. Callers that retain *Job pointers past Remove
// (the experiments' post-run report readers do) must leave it off.
func (c *Controller) SetRecycle(on bool) { c.recycle = on }

// Jobs returns the controlled jobs in registration order.
func (c *Controller) Jobs() []*Job { return c.jobs }

// JobOf returns the job controlling t, if any.
func (c *Controller) JobOf(t *kernel.Thread) (*Job, bool) {
	j := c.jobOf(t)
	return j, j != nil
}

// jobOf returns the job controlling t, or nil.
func (c *Controller) jobOf(t *kernel.Thread) *Job {
	if s := t.Slot(); s < len(c.jobAt) {
		return c.jobAt[s]
	}
	return nil
}

// index records t as a member of j in the slot table.
func (c *Controller) index(t *kernel.Thread, j *Job) {
	s := t.Slot()
	c.jobAt = kernel.GrowSlots(c.jobAt, s)
	c.jobAt[s] = j
}

// CheckSlots verifies the slot-indexed job table against the job list:
// every member of every controlled job must map to its job, and no other
// slot may name a job. A slot left naming a departed member's job, or a
// removed job, is reported. Leak tests call it after churn storms.
func (c *Controller) CheckSlots() error {
	members := 0
	for _, j := range c.jobs {
		for _, t := range j.members {
			if c.jobOf(t) != j {
				return fmt.Errorf("core: slot %d of member %v does not name its job", t.Slot(), t)
			}
		}
		members += len(j.members)
	}
	indexed := 0
	for _, j := range c.jobAt {
		if j != nil {
			indexed++
		}
	}
	if indexed != members {
		return fmt.Errorf("core: %d slots name a job, but the controlled jobs have %d members", indexed, members)
	}
	return nil
}

// Steps returns the number of control intervals executed.
func (c *Controller) Steps() uint64 { return c.steps }

// Actuations returns the number of reservation changes sent to the
// dispatcher.
func (c *Controller) Actuations() uint64 { return c.actuations }

// Samples returns the number of adaptive-job feedback samples taken — in
// the periodic sweep this grows by the adaptive job count every interval;
// in event-driven mode, only by the jobs actually re-sampled.
func (c *Controller) Samples() uint64 { return c.samples }

// SetFaults installs (or clears, with nil) a fault injector. Healthy runs
// keep the injector-nil fast path.
func (c *Controller) SetFaults(fi FaultInjector) { c.faults = fi }

// SetGovernor installs (or clears, with nil) the supervisory overload
// governor. Without one every governor-related path is a single nil check.
func (c *Controller) SetGovernor(g *overload.Governor) { c.gov = g }

// Governor returns the installed overload governor, or nil.
func (c *Controller) Governor() *overload.Governor { return c.gov }

// SetSLOProbe installs a callback supplying the recent p99 wake→dispatch
// latency, sampled once per control interval for the governor's
// SLO-driven trip point.
func (c *Controller) SetSLOProbe(fn func() sim.Duration) { c.sloProbe = fn }

// AdmissionVeto consults the governor before a new admission: at the
// throttle rung and above, new work is refused with a typed overload
// error carrying a retry-after hint — callers get backpressure instead of
// joining an already-saturated squish.
//
// The stall guard covers the regime the ladder alone cannot: the rung
// only moves at control-epoch boundaries, and the per-epoch control cost
// grows with the job count, so under a fast enough admission storm the
// epochs themselves fall behind the interval cadence before the governor
// has accumulated its trip streak — backpressure arriving exactly too
// late, while every accepted admission slows the next epoch further. When
// the last observed epoch is staler than the governor could possibly have
// tripped in and the SLO probe's recent p99 — which is fed at dispatch
// edges, not epochs, so it stays fresh through a stall — already reads
// past the latency trip, admissions are refused as if the throttle rung
// were active. On a healthy plane the guard never fires: epochs stay
// inside the window and the ladder remains the only authority.
func (c *Controller) AdmissionVeto() error {
	if c.gov == nil {
		return nil
	}
	rung := c.gov.Rung()
	if rung < overload.Throttle {
		if !c.planeStalled() {
			return nil
		}
		rung = overload.Throttle // the guard's effective rung
	}
	c.health.Throttled++
	return c.overloadErr(rung)
}

// overloadErr returns the memoized refusal for a rung. Refused callers
// only ever read the error's fields, so while the governor holds a rung
// steady — the entire lifetime of an admission storm — every refusal
// shares one object; a new error is built only when the retry-after hint
// actually changes (the hint tracks the governor's current rung, which can
// lag the effective rung on the stall-guard path).
func (c *Controller) overloadErr(rung overload.Rung) *OverloadError {
	ra := c.gov.RetryAfter(c.cfg.Interval)
	if rung < 0 || int(rung) >= len(c.vetoErr) {
		return &OverloadError{Rung: rung.String(), RetryAfter: ra}
	}
	e := c.vetoErr[rung]
	if e == nil || e.RetryAfter != ra {
		e = &OverloadError{Rung: rung.String(), RetryAfter: ra}
		c.vetoErr[rung] = e
	}
	return e
}

// planeStalled reports whether the governor's epoch evidence is too stale
// to trust and the fresh dispatch-latency signal already reads saturated.
// Requires an SLO-driven trip point: without a latency SLO there is no
// epoch-independent saturation signal to consult.
func (c *Controller) planeStalled() bool {
	if c.sloProbe == nil {
		return false
	}
	gcfg := c.gov.Config()
	if gcfg.LatencyTrip <= 0 {
		return false
	}
	// On cadence, TripIntervals saturated epochs throttle within
	// (TripIntervals+1)·Interval; an older last epoch means the plane is
	// not keeping up with the interval clock.
	window := sim.Duration(int64(c.cfg.Interval) * int64(gcfg.TripIntervals+1))
	if c.kern.Now().Sub(c.lastEpochAt) <= window {
		return false
	}
	return c.sloProbe() > gcfg.LatencyTrip
}

// Health returns a snapshot of the fault-tolerance counters, including the
// number of jobs currently degraded.
func (c *Controller) Health() Health {
	h := c.health
	for _, j := range c.jobs {
		if j.degraded != LevelRealRate {
			h.JobsDegraded++
		}
	}
	return h
}

// EffectiveThreshold returns the current admission/squish ceiling.
func (c *Controller) EffectiveThreshold() int { return c.effectiveThreshold }

// AddRealTime admits a reservation-holding job. Admission control rejects
// requests beyond the available capacity, and — on a multi-CPU machine —
// requests beyond one CPU: a reservation is held by one thread, and a
// thread runs on one CPU at a time.
func (c *Controller) AddRealTime(t *kernel.Thread, proportion int, period sim.Duration) (*Job, error) {
	if proportion <= 0 || period <= 0 {
		// Rejecting here keeps the malformed request out of the admission
		// accounting (a negative proportion would free capacity that was
		// never held) and out of the dispatcher (a non-positive period
		// used to surface only as an actuation failure).
		return nil, &ReservationError{Proportion: proportion, Period: period}
	}
	avail := c.available()
	if proportion > avail {
		return nil, &AdmissionError{Requested: proportion, Available: avail}
	}
	if a := c.perThreadCap(); proportion > a {
		return nil, &AdmissionError{Requested: proportion, Available: a}
	}
	j := c.addJob(t, RealTime)
	j.specified = proportion
	j.period = period
	j.periodFixed = true
	j.desired = proportion
	j.allocated = proportion
	c.outOfPassWrites++
	c.admitted += proportion
	c.actuate(j, proportion, period)
	return j, nil
}

// AddAperiodicRealTime admits a job that specifies proportion only; the
// controller assigns the default period (30 ms) as a jitter bound.
func (c *Controller) AddAperiodicRealTime(t *kernel.Thread, proportion int) (*Job, error) {
	if proportion <= 0 {
		return nil, &ReservationError{Proportion: proportion, Period: c.cfg.DefaultPeriod}
	}
	avail := c.available()
	if proportion > avail {
		return nil, &AdmissionError{Requested: proportion, Available: avail}
	}
	if a := c.perThreadCap(); proportion > a {
		return nil, &AdmissionError{Requested: proportion, Available: a}
	}
	j := c.addJob(t, AperiodicRealTime)
	j.specified = proportion
	j.period = c.cfg.DefaultPeriod
	j.desired = proportion
	j.allocated = proportion
	c.outOfPassWrites++
	c.admitted += proportion
	c.actuate(j, proportion, j.period)
	return j, nil
}

// AddRealRate registers a job whose progress metrics are already in the
// registry. Passing period 0 lets the controller assign (and, when
// enabled, adapt) the period.
func (c *Controller) AddRealRate(t *kernel.Thread, period sim.Duration) *Job {
	if !c.reg.HasMetrics(t) {
		panic("core: AddRealRate without registered progress metrics")
	}
	j := c.addJob(t, RealRate)
	if period > 0 {
		j.period = period
		j.periodFixed = true
	} else {
		j.period = c.cfg.DefaultPeriod
	}
	// The pressure series is only read over recent windows (period
	// adaptation, tooling), so it is bounded: at 10k+ jobs an unbounded
	// 100 Hz series per job would dominate the heap. A pooled job reuses
	// its previous life's series object and capacity, and — when the slot
	// is reissued to a same-named thread, the steady state of a recycling
	// storm — the series name too, skipping the concatenation.
	switch {
	case j.fill == nil:
		j.fillFor = t.Name()
		j.fill = metrics.NewSeries(c.pressureName(j.fillFor)).Bound(8192)
	case j.fillFor != t.Name():
		j.fillFor = t.Name()
		j.fill.Reset(c.pressureName(j.fillFor))
	default:
		j.fill.Reset(j.fill.Name)
	}
	c.bootstrap(j)
	return j
}

// AddMiscellaneous registers a job with no information at all.
func (c *Controller) AddMiscellaneous(t *kernel.Thread) *Job {
	j := c.addJob(t, Miscellaneous)
	j.period = c.cfg.DefaultPeriod
	c.bootstrap(j)
	return j
}

// AddInteractive registers a tty-server job (§3.2's interactive class).
// Interactive jobs carry a raised default importance so bulk jobs cannot
// squish them below their burst requirement.
func (c *Controller) AddInteractive(t *kernel.Thread) *Job {
	j := c.addJob(t, Interactive)
	j.period = c.cfg.InteractivePeriod
	j.importance = c.cfg.InteractiveImportance
	c.bootstrap(j)
	return j
}

// Renegotiate changes a real-time or aperiodic real-time job's reservation,
// subject to admission control — the §3.3 renegotiation path ("the
// controller may raise a quality exception and initiate a renegotiation of
// the resource reservation"). Shrinking always succeeds; growth must fit
// the available capacity.
func (c *Controller) Renegotiate(j *Job, proportion int) error {
	if j.class != RealTime && j.class != AperiodicRealTime {
		return fmt.Errorf("core: job %s is %s; only reservation-holding jobs renegotiate",
			j.thread.Name(), j.class)
	}
	if proportion <= 0 {
		return &ReservationError{Proportion: proportion, Period: j.period}
	}
	if proportion > j.specified && c.gov != nil && c.gov.Rung() >= overload.Freeze {
		// Freeze rung: renegotiations to larger reservations are refused;
		// shrinking is still welcome — it helps.
		c.health.Throttled++
		return c.overloadErr(c.gov.Rung())
	}
	delta := proportion - j.specified
	if delta > 0 && delta > c.available() {
		return &AdmissionError{Requested: delta, Available: c.available()}
	}
	// The reservation is split across the job's members, so the one-CPU
	// cap applies to the largest member share (the primary's, which takes
	// the remainder), not the job total.
	if a := c.perThreadCap(); c.maxMemberShare(j, proportion) > a {
		return &AdmissionError{Requested: proportion, Available: a * len(j.members)}
	}
	c.admitted += delta
	j.specified = proportion
	j.desired = proportion
	j.allocated = proportion
	c.outOfPassWrites++
	c.actuate(j, proportion, j.period)
	return nil
}

// AddMember adds a cooperating thread to an existing job: the job's
// allocation is shared (split evenly) across its members, its progress is
// the sum of its members' metrics, and its usage is their combined CPU.
func (c *Controller) AddMember(j *Job, t *kernel.Thread) {
	if c.jobOf(t) != nil {
		panic(fmt.Sprintf("core: thread %v already controlled", t))
	}
	j.members = append(j.members, t)
	c.index(t, j)
	if t.State() == kernel.StateExited {
		c.reapDue = true
	}
	j.lastCPU = j.cpuTime()
	j.cpuBlockMark = j.cpuTime()
	j.lastBlocked = j.blockedCount()
	c.actuate(j, j.allocated, j.period)
}

// SetImportance sets the weighted-fair-share weight of a job.
func (c *Controller) SetImportance(j *Job, w float64) {
	if w <= 0 {
		panic("core: importance must be positive")
	}
	j.importance = w
}

// Remove stops controlling a job, freeing its admission if it held one.
// Removing a job that is no longer controlled (e.g. already reaped after
// its last member exited) is a no-op, so the incremental admission
// accounting cannot be corrupted by a double Remove.
func (c *Controller) Remove(j *Job) {
	found := false
	for i, other := range c.jobs {
		if other == j {
			copy(c.jobs[i:], c.jobs[i+1:])
			c.jobs[len(c.jobs)-1] = nil // clear the vacated tail slot
			c.jobs = c.jobs[:len(c.jobs)-1]
			found = true
			break
		}
	}
	if !found {
		return
	}
	if j.class == RealTime || j.class == AperiodicRealTime {
		c.admitted -= j.specified
	}
	if j.class.Adaptive() {
		c.adaptive--
	}
	for _, t := range j.members {
		c.jobAt[t.Slot()] = nil
		c.policy.Unregister(t)
		c.reg.Unregister(t)
	}
	if c.wants(EventJobRemoved) {
		c.emit(Event{Kind: EventJobRemoved, Time: c.kern.Now(), Job: j})
	}
	if c.recycle {
		c.retired = append(c.retired, j)
	}
}

// ThreadExited tears down one exited member thread's controller state
// immediately: the thread leaves its job (and the job leaves the
// controller when it was the last member), instead of lingering until the
// next epoch's reap. The recycling layers need the eager path — a pooled
// kernel thread can be reissued before the next epoch, and every stale
// *kernel.Thread reference must be gone by then — but it is correct (and
// idempotent with reap) for any caller's exit hook. Unknown threads are
// ignored.
func (c *Controller) ThreadExited(t *kernel.Thread) {
	j := c.jobOf(t)
	if j == nil {
		return
	}
	c.jobAt[t.Slot()] = nil
	c.policy.Unregister(t)
	c.reg.Unregister(t)
	for i, m := range j.members {
		if m == t {
			copy(j.members[i:], j.members[i+1:])
			j.members[len(j.members)-1] = nil // clear the vacated tail slot
			j.members = j.members[:len(j.members)-1]
			break
		}
	}
	if len(j.members) == 0 {
		c.Remove(j)
		return
	}
	c.setPrimary(j)
}

// setPrimary re-points a surviving job's primary at members[0], counting
// the change when it is one.
func (c *Controller) setPrimary(j *Job) {
	if j.thread != j.members[0] {
		j.thread = j.members[0]
		c.primaryChanges++
	}
}

// jobSlabSize is how many Job objects one slab chunk holds.
const jobSlabSize = 256

// allocJob returns a scrubbed Job object: from the free pool when
// recycling has banked one, otherwise carved from the current slab chunk.
// A pooled object keeps its members backing array and its bounded
// pressure series (capacity, not contents) from the previous life.
func (c *Controller) allocJob() *Job {
	if j := c.freeJob; j != nil {
		c.freeJob = j.freeNext
		j.freeNext = nil
		return j
	}
	if len(c.jobSlab) == 0 {
		c.jobSlab = make([]Job, jobSlabSize)
	}
	j := &c.jobSlab[0]
	c.jobSlab = c.jobSlab[1:]
	j.slot = c.carvedJobs
	c.carvedJobs++
	return j
}

// pressureName returns the interned "<name>.pressure" series label.
func (c *Controller) pressureName(name string) string {
	if fn, ok := c.fillNames[name]; ok {
		return fn
	}
	fn := name + ".pressure"
	if c.fillNames == nil {
		c.fillNames = make(map[string]string)
	}
	c.fillNames[name] = fn
	return fn
}

// allocPID returns a fresh-state PID filter for cfg.PID, reusing a pooled
// one when available (every pooled filter was built from the same config,
// so Reset restores the fresh-filter state exactly).
func (c *Controller) allocPID() *pid.Controller {
	if n := len(c.freePID); n > 0 {
		g := c.freePID[n-1]
		c.freePID[n-1] = nil
		c.freePID = c.freePID[:n-1]
		g.Reset()
		return g
	}
	return pid.New(c.cfg.PID)
}

// flushRetired scrubs the jobs removed since the previous epoch and moves
// them to the free pool. Runs at the epoch prologue only: nothing from the
// current step can reference them there.
func (c *Controller) flushRetired() {
	for i, j := range c.retired {
		c.retired[i] = nil
		if j.g != nil {
			c.freePID = append(c.freePID, j.g)
		}
		for k := range j.members {
			j.members[k] = nil
		}
		members := j.members[:0]
		fill, fillFor, slot := j.fill, j.fillFor, j.slot
		*j = Job{members: members, fill: fill, fillFor: fillFor, slot: slot}
		j.freeNext = c.freeJob
		c.freeJob = j
	}
	c.retired = c.retired[:0]
}

func (c *Controller) addJob(t *kernel.Thread, class Class) *Job {
	if c.jobOf(t) != nil {
		panic(fmt.Sprintf("core: thread %v already controlled", t))
	}
	j := c.allocJob()
	j.thread = t
	if cap(j.members) == 0 {
		// The inline buffer fits the common small pipeline, so the primary
		// plus a few AddMember calls need no allocation (a grown backing
		// array survives pooling, so a recycled job never regrows at all).
		j.members = j.memberBuf[:0]
	}
	j.members = append(j.members, t)
	if t.State() == kernel.StateExited {
		c.reapDue = true
	}
	j.class = class
	j.importance = 1
	j.lastCPU = t.CPUTime()
	j.cpuBlockMark = t.CPUTime()
	j.lastBlocked = t.BlockedCount()
	j.usageEWMA = 1 // presume fully used until measured otherwise
	if class == RealRate {
		// Only real-rate jobs filter pressure through G; skipping the PID
		// for the other classes keeps a million-job taskset's controller
		// state within memory reach (the 1M-job admission soak).
		j.g = c.allocPID()
	}
	c.jobs = append(c.jobs, j)
	c.index(t, j)
	if class.Adaptive() {
		c.adaptive++
	}
	if c.wants(EventJobAdded) {
		c.emit(Event{Kind: EventJobAdded, Time: c.kern.Now(), Job: j})
	}
	return j
}

// bootstrap gives adaptive jobs their floor allocation so they can start
// making progress before the first control interval.
func (c *Controller) bootstrap(j *Job) {
	j.desired = c.cfg.MinProportion
	j.allocated = c.cfg.MinProportion
	c.outOfPassWrites++
	c.actuate(j, j.allocated, j.period)
}

// available returns the admission headroom in ppt of machine capacity
// (CPUs × 1000): real-rate and miscellaneous jobs are squishable down to
// their floors, so only hard reservations and floors are unavailable. The
// adaptive-job count is maintained incrementally, so this is O(1) per
// admission check.
func (c *Controller) available() int {
	return c.effectiveThreshold - c.admitted - c.cfg.MinProportion*c.adaptive
}

// perThreadCap bounds one member thread's reservation share: a thread
// occupies at most one CPU, so no single thread's reservation may exceed
// one CPU's overload threshold no matter how much machine-wide capacity
// is free. On a single-CPU machine the available() check is always the
// tighter one, so this never fires there.
func (c *Controller) perThreadCap() int { return c.cfg.OverloadThreshold }

// maxMemberShare is the largest per-thread share actuate would hand out
// for a job-total proportion: the even split plus the remainder the
// primary member absorbs.
func (c *Controller) maxMemberShare(j *Job, proportion int) int {
	n := len(j.members)
	if n <= 1 {
		return proportion
	}
	share := proportion / n
	return share + (proportion - share*n)
}

// shedOne kills the lowest-importance live miscellaneous job — the shed
// rung's importance-ordered load shedding. Only best-effort work is ever
// a candidate: reservation-holding (real-time, aperiodic) and real-rate
// jobs are never shed, and neither are interactive jobs (a user is
// waiting on them). Ties break toward the oldest registration. rung, the
// ladder position that ordered the shed, rides on the EventShed. Reports
// whether a victim was found.
func (c *Controller) shedOne(now sim.Time, rung overload.Rung) bool {
	var victim *Job
	for _, j := range c.jobs {
		if j.class != Miscellaneous {
			continue
		}
		live := false
		for _, m := range j.members {
			if m.State() != kernel.StateExited {
				live = true
				break
			}
		}
		if !live {
			continue
		}
		if victim == nil || j.importance < victim.importance {
			victim = j
		}
	}
	if victim == nil {
		return false
	}
	c.health.Sheds++
	if c.wants(EventShed) {
		c.emit(Event{Kind: EventShed, Time: now, Job: victim, To: int8(rung)})
	}
	// Retire is re-entrancy-safe from inside the controller's step (the
	// kernel's busy guard defers the reschedule), and the exit hook runs
	// synchronously, so the public layer unindexes the thread before the
	// next shed candidate is evaluated. Under the eager exit path
	// (ThreadExited) each Retire also removes the member from
	// victim.members while we iterate, so walk the slice from the tail
	// with a bounds re-check instead of ranging over a stale header;
	// without the eager path the job is reaped — and its admission
	// headroom freed — on the next interval's reap.
	for i := len(victim.members) - 1; i >= 0; i-- {
		if i >= len(victim.members) {
			continue
		}
		m := victim.members[i]
		if m != nil && m.State() != kernel.StateExited {
			c.kern.Retire(m)
		}
	}
	return true
}

// observeUsage folds this interval's used/granted ratio into the job's
// smoothed usage estimate and reports it. Jobs burn their budgets in
// bursts and nap the rest of each period, so the instantaneous ratio
// aliases; reclamation must look at the average over several intervals.
// epochs is the number of control intervals since the job was last
// sampled — always 1 in the periodic sweep; the event-driven plane passes
// the actual gap so the granted baseline covers the skipped intervals.
func (c *Controller) observeUsage(j *Job, dt float64, epochs int64) float64 {
	used := j.cpuTime() - j.lastCPU
	granted := sim.Duration(int64(c.cfg.Interval) * epochs * int64(j.allocated) / pptDenom)
	ratio := 1.0
	if granted > 0 {
		ratio = float64(used) / float64(granted)
		if ratio > 1.5 {
			ratio = 1.5
		}
	}
	const tau = 0.1 // seconds: ≈10 control intervals
	alpha := dt / (tau + dt)
	j.usageEWMA += alpha * (ratio - j.usageEWMA)
	pptUsed := float64(used) / float64(c.cfg.Interval) * pptDenom
	j.usedPPT += alpha * (pptUsed - j.usedPPT)
	return j.usageEWMA
}

// estimate implements Figure 4 for one adaptive job: normally P′ = k·Q_t,
// but if the previous allocation went unused the allocation drops by the
// constant C and the banked integral bleeds off.
func (c *Controller) estimate(j *Job, pressure float64, dt float64, epochs int64) int {
	usage := c.observeUsage(j, dt, epochs)
	if j.allocated > c.cfg.MinProportion && usage < c.cfg.ReclaimFraction {
		// Too generous: the job demonstrably cannot use what it has, even
		// if its queue pressure is positive — "increasing the allocation
		// may not improve the thread's progress, as might happen ... if
		// another resource (such as a disk-as-producer) is the bottleneck"
		// (Figure 4's P−C path).
		j.g.ScaleIntegral(0.8)
		j.g.Step(pressure, dt) // keep the filter advancing
		return clampPPT(j.allocated-c.cfg.ReclaimC, c.cfg.MinProportion, c.cfg.DesireCap)
	}
	q := j.g.Step(pressure, dt)
	return clampPPT(int(c.cfg.K*q), c.cfg.MinProportion, c.cfg.DesireCap)
}

// estimateMisc implements the miscellaneous heuristic: "the controller
// approximates the thread's progress with a positive constant. In this way
// there is constant pressure to allocate more CPU to a miscellaneous
// thread, until it is either satisfied or the CPU becomes oversubscribed",
// combined with the usage check ("whether or not the application uses the
// allocation it is given"). The desire is sized from measured consumption
// with headroom, capped by the constant-pressure target K·MiscPressure: a
// busy hog's desire climbs geometrically to the cap and stays flat there —
// crucially, NOT integrated — so under overload its desire holds steady
// while a falling-behind real-rate job's pressure (and hence desire) grows
// past it and wins the squish: exactly the Figure 7 dynamic. An idle job's
// desire follows its usage back down, which is the reclamation.
func (c *Controller) estimateMisc(j *Job, dt float64, epochs int64) int {
	usage := c.observeUsage(j, dt, epochs)
	target := clampPPT(int(c.cfg.K*c.cfg.MiscPressure), c.cfg.MinProportion, c.cfg.MaxProportion)
	// Hysteresis on the usage test keeps the decision away from the
	// boundary: a squished busy hog uses ≥100% of its (quantized) grant,
	// an idle job ≈0%.
	if j.reclaiming && usage > c.cfg.ReclaimFraction+0.2 {
		j.reclaiming = false
	} else if !j.reclaiming && usage < c.cfg.ReclaimFraction-0.1 {
		j.reclaiming = true
	}
	if j.reclaiming {
		// Reclaim: follow measured consumption down (with headroom so the
		// job can ramp back).
		d := int(1.3*j.usedPPT) + c.cfg.ReclaimC
		if d > target {
			d = target
		}
		return clampPPT(d, c.cfg.MinProportion, c.cfg.MaxProportion)
	}
	// The job uses what it gets: the paper's constant pressure, verbatim.
	// Every busy miscellaneous job desires the same target, which is what
	// makes proportional squish "result in equal allocation of the CPU to
	// all competing jobs over time".
	return target
}

// estimateInteractive sizes an interactive job from its typical burst: the
// proportion that would fit its average run-before-block into each period,
// with headroom.
func (c *Controller) estimateInteractive(j *Job) int {
	blocks := j.blockedCount() - j.lastBlocked
	if blocks > 0 {
		used := j.cpuTime() - j.cpuBlockMark
		j.cpuBlockMark = j.cpuTime()
		burst := sim.Duration(int64(used) / int64(blocks))
		if j.burstEstimate == 0 {
			j.burstEstimate = burst
		} else {
			// Exponential smoothing, 1/4 new.
			j.burstEstimate = (3*j.burstEstimate + burst) / 4
		}
	}
	if j.burstEstimate == 0 {
		return c.cfg.MinProportion
	}
	prop := int(c.cfg.InteractiveHeadroom * float64(j.burstEstimate) / float64(j.period) * pptDenom)
	return clampPPT(prop, c.cfg.MinProportion, c.cfg.MaxProportion)
}

// maybeRaiseQuality raises a quality exception after a sustained stretch of
// saturated pressure while squished: the machine simply lacks the CPU.
func (c *Controller) maybeRaiseQuality(j *Job, alloc int, now sim.Time) {
	saturated := j.class == RealRate && j.lastRaw >= 0.45
	if saturated && alloc < j.desired {
		j.overloadStreak++
	} else {
		j.overloadStreak = 0
		return
	}
	if j.overloadStreak == c.cfg.OverloadStreak {
		if c.wants(EventQuality) {
			c.emit(Event{Kind: EventQuality, Time: now, Job: j, Value: j.g.Output(),
				Desired: j.desired, Granted: alloc})
		}
		j.overloadStreak = 0
	}
}

// actuate pushes the job's reservation into the dispatcher, after letting
// the fault injector drop or defer it.
func (c *Controller) actuate(j *Job, prop int, period sim.Duration) {
	if c.faults != nil {
		now := c.kern.Now()
		if drop, delay := c.faults.ActuationFault(j.thread.Name(), now); drop || delay {
			if drop {
				c.health.ActuationsDropped++
				if c.wants(EventActuationDropped) {
					c.emit(Event{Kind: EventActuationDropped, Time: now, Job: j})
				}
				return
			}
			c.health.ActuationsDelayed++
			c.delayed = append(c.delayed, delayedActuation{job: j, prop: prop, period: period})
			if c.wants(EventActuationDelayed) {
				c.emit(Event{Kind: EventActuationDelayed, Time: now, Job: j})
			}
			return
		}
	}
	c.apply(j, prop, period)
}

// apply installs the job's reservation in the dispatcher, split evenly
// across its member threads (the remainder goes to the primary). A refused
// install is a typed, counted fault — the job keeps its previous
// reservation — not a panic: the dispatcher can reject for reasons that
// are runtime state (a corrupted period from a faulted source), and one
// bad job must not take the whole controller down.
//
// Installing a reservation can run the machine (see below), and a member
// that exits meanwhile leaves j.members at once — the slice shifts under
// the loop. So the loop walks a snapshot and skips a member j no longer
// owns; the first member needs no check, since nothing has run yet.
func (c *Controller) apply(j *Job, prop int, period sim.Duration) {
	var buf [8]*kernel.Thread
	members := append(buf[:0], j.members...)
	n := len(members)
	share := prop / n
	rem := prop - share*n
	for i, t := range members {
		if i > 0 && c.jobOf(t) != j {
			continue
		}
		p := share
		if i == 0 {
			p += rem
		}
		if p < 1 {
			p = 1 // every live thread keeps a non-zero reservation
		}
		if err := c.policy.SetReservation(t, rbs.Reservation{Proportion: p, Period: period}); err != nil {
			c.health.ActuationErrors++
			if c.wants(EventActuationError) {
				aerr := &ActuationError{Job: j, Proportion: p, Period: period, Err: err}
				c.emit(Event{Kind: EventActuationError, Time: c.kern.Now(), Job: j, Err: aerr})
			}
			continue
		}
	}
	j.actuations++
	c.actuations++
	// Installing the reservation can run the machine: SetReservation wakes
	// a napping thread, the wake may preempt, and the dispatched program
	// may exit — all before this line. An actuation event for a thread
	// that retired mid-actuation must not escape: observers are promised
	// that nothing fires after retirement.
	if c.wants(EventActuate) && j.thread.State() != kernel.StateExited {
		c.emit(Event{Kind: EventActuate, Time: c.kern.Now(), Job: j, Prop: prop, Period: period})
	}
}

// samplePressure sums the registered progress metrics of every member
// thread, clamped to the paper's [-1/2, 1/2] pressure range. It is the
// controller's signal boundary: the fault injector perturbs here, and
// NaN/Inf is rejected here — the previous raw sample is returned with
// ok=false so the estimator never integrates garbage.
func (c *Controller) samplePressure(j *Job, now sim.Time) (float64, bool) {
	var sum float64
	for _, t := range j.members {
		// SummedPressure clamps per thread; re-clamp the job total below.
		sum += c.reg.SummedPressure(t, now)
	}
	if c.faults != nil {
		sum = c.faults.PerturbPressure(j.thread.Name(), now, sum)
	}
	if math.IsNaN(sum) || math.IsInf(sum, 0) {
		c.health.SignalsRejected++
		if c.wants(EventSignalRejected) {
			c.emit(Event{Kind: EventSignalRejected, Time: now, Job: j, Value: sum})
		}
		return j.lastRaw, false
	}
	if sum > 0.5 {
		sum = 0.5
	}
	if sum < -0.5 {
		sum = -0.5
	}
	return sum, true
}

// watchdog runs the flat-signal detector for one real-rate job. A sample
// is flat when it was rejected by the sanitizer, or when it exactly equals
// the previous sample while the job consumed CPU this interval — a live
// thread whose progress metric is byte-identical across samples is a
// stalled signal, not a steady state. Saturated samples (|p| ≥ 0.45) are
// excluded: a pinned-full queue under overload is the quality-exception
// path's business, not a signal fault. WatchdogIntervals consecutive flat
// samples demote the job one rung; WatchdogRecovery consecutive moving
// samples promote it one rung back.
func (c *Controller) watchdog(j *Job, p float64, ok bool, now sim.Time) {
	if c.cfg.WatchdogIntervals < 0 {
		return
	}
	flat := !ok
	if ok {
		if j.haveSample {
			d := p - j.lastSample
			if d < 1e-12 && d > -1e-12 && p < 0.45 && p > -0.45 && j.cpuTime() > j.lastCPU {
				flat = true
			}
		}
		j.lastSample = p
		j.haveSample = true
	}
	if flat {
		j.recoverStreak = 0
		j.flatStreak++
		if j.flatStreak >= c.cfg.WatchdogIntervals && j.degraded < LevelMisc {
			c.demote(j, now)
			j.flatStreak = 0
		}
		return
	}
	j.flatStreak = 0
	if j.degraded > LevelRealRate {
		j.recoverStreak++
		if j.recoverStreak >= c.cfg.WatchdogRecovery {
			c.promote(j, now)
			j.recoverStreak = 0
		}
	}
}

// demote moves a job one rung down the ladder. Entering LevelFallback
// freezes the last trusted allocation as the fixed fallback proportion.
func (c *Controller) demote(j *Job, now sim.Time) {
	from := j.degraded
	j.degraded++
	if j.degraded == LevelFallback {
		j.fallback = j.allocated
		if j.fallback < c.cfg.MinProportion {
			j.fallback = c.cfg.MinProportion
		}
	}
	c.health.Degradations++
	if c.wants(EventDegrade) {
		c.emit(Event{Kind: EventDegrade, Time: now, Job: j, From: int8(from), To: int8(j.degraded)})
	}
}

// promote moves a degraded job one rung back up after its signal recovers.
func (c *Controller) promote(j *Job, now sim.Time) {
	from := j.degraded
	j.degraded--
	c.health.Recoveries++
	if c.wants(EventRecover) {
		c.emit(Event{Kind: EventRecover, Time: now, Job: j, From: int8(from), To: int8(j.degraded)})
	}
}

// reap drops exited member threads and removes jobs with no live members.
// It scans only when the kernel's exit count moved since the last scan (or
// an exited thread joined a job): otherwise no member can have exited, and
// the scan of every job's members would find nothing. The eager exit path
// (ThreadExited) usually leaves it nothing to do even then.
func (c *Controller) reap() {
	exits := c.kern.Exits()
	if exits == c.reapedExits && !c.reapDue {
		return
	}
	c.reapedExits, c.reapDue = exits, false
	for i := 0; i < len(c.jobs); {
		j := c.jobs[i]
		live := j.members[:0]
		for _, t := range j.members {
			if t.State() == kernel.StateExited {
				c.jobAt[t.Slot()] = nil
				c.policy.Unregister(t)
				c.reg.Unregister(t)
				continue
			}
			live = append(live, t)
		}
		j.members = live
		if len(j.members) == 0 {
			c.Remove(j)
			continue
		}
		c.setPrimary(j)
		i++
	}
}

// grow returns buf resliced to n, reallocating only when capacity is
// short — the scratch-buffer idiom behind the allocation-free epoch.
func grow(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func growBool(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

func clampPPT(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
