// Package realrate is a feedback-driven proportion allocator for real-rate
// scheduling: a reproduction of Steere, Goel, Gruenberg, McNamee, Pu, and
// Walpole's OSDI 1999 paper as a Go library.
//
// The library simulates a machine (a single-CPU 400 MHz Linux 2.0.35 box
// by default; Config.CPUs builds an SMP machine with work-pull migration
// and per-thread affinity) whose scheduler allocates CPU by proportion and
// period instead of priority. A feedback controller assigns both
// automatically from observations of application progress through
// symbiotic interfaces — bounded buffers that expose their fill level to
// the kernel:
//
//	sys := realrate.NewSystem(realrate.Config{})
//	q := sys.NewQueue("pipe", 1<<20)
//	prod, _ := sys.Spawn("producer", producerProg,
//	    realrate.Reserve(100, 10*time.Millisecond))
//	cons, _ := sys.Spawn("consumer", consumerProg,
//	    realrate.RealRate(0, realrate.ConsumerOf(q)))
//	sys.Run(10 * time.Second)
//
// Threads fall into the paper's Figure 2 taxonomy, expressed as Spawn
// options: Reserve declares proportion and period (a reservation, honored
// after admission control); Aperiodic declares proportion only; RealRate
// supplies progress sources and gets its proportion estimated (its period
// is the 30 ms default unless it gives one); a thread spawned with
// no class option is miscellaneous — it supplies nothing and is grown by a
// constant-pressure heuristic until satisfied or squished. Interactive
// threads get a small period and a proportion estimated from their burst
// lengths; Unmanaged threads run outside the controller entirely.
//
// Three further seams make the stack pluggable: Config.Policy swaps the
// scheduling discipline (the paper's RBS against the Stride, Lottery,
// Linux-goodness, and RoundRobin baselines); ProgressSource generalizes
// the progress metric (kernel queues via ConsumerOf/ProducerOf, work-unit
// paces via NewPace, or any user-implemented metric — §4.5's "any
// measurable work unit"); and Observer taps dispatches, actuations,
// admission decisions, and quality exceptions without touching the hot
// paths when unused.
package realrate

import (
	"time"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/overload"
	"repro/internal/progress"
	"repro/internal/rbs"
	"repro/internal/sim"
)

// PPT is the proportion denominator: allocations are in parts-per-thousand
// of the CPU.
const PPT = 1000

// Config configures a System. The zero value reproduces the paper's
// testbed: 400 MHz CPU, 1 ms dispatch tick, 100 Hz controller, feedback
// reservation scheduling.
type Config struct {
	// Policy is the scheduling discipline. Nil selects RBS(), the paper's
	// feedback reservation scheduler; Stride, Lottery, Linux, and
	// RoundRobin select the comparison baselines (which run without the
	// feedback controller). The instance must not be shared between
	// systems.
	Policy Policy
	// CPUs is the number of CPUs of the simulated machine (default 1, the
	// paper's testbed). With N CPUs the machine's capacity is N×1000 ppt:
	// the admission ceiling and the squish scale accordingly, threads can
	// be pinned with the Affinity spawn option, and idle CPUs work-pull
	// runnable threads from their peers (observable via
	// Observer.OnMigration). CPUs=1 reproduces the paper's dispatch
	// schedules byte-for-byte.
	CPUs int
	// Controller overrides the controller tuning; zero fields keep
	// defaults. Most users never touch this.
	Controller ControllerTuning
	// Faults installs a seeded, declarative fault-injection schedule (see
	// FaultPlan): corrupted progress signals, clock jitter, CPU stalls,
	// stuck threads, dropped/delayed actuations. Nil — the default —
	// costs nothing: the hot paths pay one nil check and the dispatch
	// schedule is byte-identical to a build without the fault apparatus.
	Faults *FaultPlan
	// Overload installs the supervisory overload governor and enables SLO
	// latency accounting (see OverloadConfig and System.SLO). Nil — the
	// default — costs nothing: the hot paths pay one nil check and the
	// dispatch schedule is byte-identical to a build without the governor.
	Overload *OverloadConfig
	// CtlPlane configures the control plane that drives the feedback
	// controller. The zero value — one periodic shard — is the paper's
	// single controller thread; shards and event-driven sampling scale it
	// to machines with very many jobs.
	CtlPlane CtlPlaneConfig
	// disablePools turns off free-list recycling of the spawn→exit life
	// cycle: kernel thread slots, reservation segments, scheduler
	// per-thread state, and controller jobs are then left to the garbage
	// collector instead of being reissued to later spawns. Recycling is
	// on by default — it changes no dispatch schedule (pools preserve
	// enqueue-sequence tie-breaks and observer event order) and cuts
	// allocation churn by an order of magnitude under open-loop spawn
	// storms. Only the tests that verify exactly that claim set it.
	disablePools bool
}

// ControllerTuning exposes the controller's cost model and progress
// watchdog; zero fields keep the defaults.
type ControllerTuning struct {
	// BaseCost and PerJobCost model the controller's own per-interval
	// execution cost in cycles (Figure 5's intercept and slope).
	BaseCost, PerJobCost int64
	// WatchdogIntervals is how many consecutive flat (or rejected)
	// progress samples demote a real-rate thread one rung down the
	// degradation ladder (default 50, i.e. half a second at 100 Hz;
	// negative disables the watchdog). WatchdogRecovery is how many
	// consecutive moving samples promote it one rung back (default 5).
	WatchdogIntervals int
	WatchdogRecovery  int
}

// System is a simulated machine: kernel, scheduling policy, progress
// registry, and — under the default RBS policy — the feedback controller.
type System struct {
	eng    *sim.Engine
	kern   *kernel.Kernel
	policy kernel.Policy
	// rbs is the reservation dispatcher when the policy is RBS, nil under
	// a baseline policy.
	rbs *rbs.Policy
	reg *progress.Registry
	// ctl is nil under baseline policies: no feedback allocator runs.
	ctl *core.Controller
	// plane drives ctl; nil exactly when ctl is.
	plane *ctlplane.Plane

	// thSlab is the current chunk backing public Thread handles. Handles
	// are deliberately NOT pooled — a caller may hold one long after the
	// thread exits and read its frozen statistics — but carving them from
	// slab chunks makes an admission storm cost 1/256th of an allocation
	// per spawn instead of one.
	thSlab []Thread
	// qSlab backs public Queue wrappers the same way.
	qSlab []Queue

	hub observerHub

	// slo is the wake→dispatch latency tracker, nil without
	// Config.Overload.
	slo *sloTracker

	// faults is the compiled fault injector, nil without Config.Faults.
	faults *faults.Injector
	// srcRejects counts NaN/Inf values refused by the custom-source
	// clamping adapter (see customMetric), feeding Health.
	srcRejects uint64

	started bool
}

// NewSystem builds a machine from the configuration.
func NewSystem(cfg Config) *System {
	s := &System{eng: sim.NewEngine(), reg: progress.NewRegistry()}
	s.hub.sys = s
	kcfg := kernel.DefaultConfig()
	if cfg.CPUs > 0 {
		kcfg.CPUs = cfg.CPUs
	}
	kcfg.Recycle = !cfg.disablePools
	t := cfg.Controller
	ccfg := core.Config{
		BaseCost:          sim.Cycles(t.BaseCost),
		PerJobCost:        sim.Cycles(t.PerJobCost),
		WatchdogIntervals: t.WatchdogIntervals,
		WatchdogRecovery:  t.WatchdogRecovery,
	}
	if cfg.Faults != nil && len(cfg.Faults.Specs) > 0 {
		s.faults = s.buildInjector(cfg.Faults)
		kcfg.Faults, ccfg.Faults = s.faults, s.faults
	}
	if cfg.Overload != nil {
		// The brownout ladder needs the controller's saturation signals,
		// so it only runs under the feedback policy.
		ccfg.Governor = overload.New(cfg.Overload.governorConfig())
	}

	// Resolve the policy seam: unwrap public wrappers so the kernel's
	// dispatch hot path calls the scheduler directly, and identify RBS so
	// the feedback controller can be wired to it.
	switch p := cfg.Policy.(type) {
	case nil:
		s.policy = rbs.New()
	case kernelPolicyHolder:
		s.policy = p.kernelPolicy()
	default:
		s.policy = p
	}
	s.rbs, _ = s.policy.(*rbs.Policy)
	s.kern = kernel.New(s.eng, kcfg, s.policy)
	if s.rbs != nil {
		s.ctl = core.New(s.kern, s.rbs, s.reg, ccfg)
	}
	// Installed after core.New, which installs the controller's own exit
	// hook; threadExited calls it after freezing the handle.
	s.kern.SetExitHook(s.threadExited)
	if cfg.Overload != nil {
		// SLO accounting taps the kernel's wake/dispatch edges through the
		// observer hub, under every policy.
		s.slo = newSLOTracker(cfg.Overload.LatencySLO, cfg.Overload.SessionSLO)
		s.hub.slo = s.slo
		s.hub.install()
	}
	if s.ctl != nil {
		// Built last so the plane sees the fully-wired controller; it
		// subscribes to the controller's job-change events and — in event
		// mode — claims the registry's dirty hook.
		s.plane = buildPlane(s, cfg.CtlPlane)
	}
	return s
}

// PolicyName returns the name of the scheduling policy driving the system.
func (s *System) PolicyName() string { return s.policy.Name() }

// Run advances the simulation by d, starting the machine and controller on
// the first call.
func (s *System) Run(d time.Duration) {
	if !s.started {
		s.started = true
		if s.plane != nil {
			s.plane.Start()
		}
		s.kern.Start()
	}
	s.eng.RunFor(sim.FromStd(d))
}

// Stop halts dispatching; Run may still be used to drain time.
func (s *System) Stop() { s.kern.Stop() }

// Now returns the current simulated time since system creation.
func (s *System) Now() time.Duration { return time.Duration(s.kern.Now()) }

// After schedules fn to be called once, with the simulated timestamp, d
// after the current simulated instant. Unlike Every it fires exactly once;
// open-loop workload drivers use it to inject arrivals, removals, and
// renegotiations at precomputed instants. The callback may spawn or kill
// threads. Call before or between Runs, or from another callback.
func (s *System) After(d time.Duration, fn func(now time.Duration)) {
	iv := sim.FromStd(d)
	if iv < 0 {
		panic("realrate: negative delay")
	}
	s.eng.After(iv, func(now sim.Time) { fn(time.Duration(now)) })
}

// Timer is a reusable one-shot simulation timer: the callback is wired
// once at creation and the timer is re-armed with Arm, reusing the
// engine's pooled event object. Open-loop drivers firing hundreds of
// thousands of irregular arrivals use one Timer re-armed from inside its
// own callback instead of one System.After closure per arrival.
type Timer struct {
	sys *System
	fn  func(now time.Duration)
	efn func(sim.Time)
	ev  *sim.Event
	// firing marks the span of the callback itself; armed marks a pending
	// schedule. Together they tell Arm whether the engine event object is
	// still ours to re-arm or has been recycled.
	firing, armed bool
}

// NewTimer returns an unarmed timer that will call fn at each instant it
// is armed for.
func (s *System) NewTimer(fn func(now time.Duration)) *Timer {
	t := &Timer{sys: s, fn: fn}
	t.efn = func(now sim.Time) {
		t.firing, t.armed = true, false
		t.fn(time.Duration(now))
		t.firing = false
		if !t.armed {
			t.ev = nil // the engine recycles the event once we return
		}
	}
	return t
}

// Arm schedules the timer to fire once, d from now. Arming a pending
// timer moves it; re-arming from inside the callback is the periodic
// idiom and costs no allocation.
func (t *Timer) Arm(d time.Duration) {
	iv := sim.FromStd(d)
	if iv < 0 {
		panic("realrate: negative delay")
	}
	when := t.sys.eng.Now().Add(iv)
	if t.ev != nil && (t.firing || t.armed) {
		t.sys.eng.Reschedule(t.ev, when)
	} else {
		t.ev = t.sys.eng.At(when, t.efn)
	}
	t.armed = true
}

// Every schedules fn to be called with the simulated timestamp every
// interval, forever. Call before or between Runs.
func (s *System) Every(interval time.Duration, fn func(now time.Duration)) {
	iv := sim.FromStd(interval)
	if iv <= 0 {
		panic("realrate: non-positive sampling interval")
	}
	var tick func(sim.Time)
	tick = func(now sim.Time) {
		fn(time.Duration(now))
		s.eng.After(iv, tick)
	}
	s.eng.After(iv, tick)
}

// qualityReason is the Reason of every QualityEvent: the controller raises
// quality exceptions for sustained overload only.
const qualityReason = "sustained overload: renegotiate resource requirements"

// QualityEvent is a quality exception surfaced to the application through
// Observer.OnQuality.
type QualityEvent struct {
	Thread    *Thread
	Time      time.Duration
	Pressure  float64
	Desired   int
	Allocated int
	Reason    string
}

// Stats is machine-level accounting. Idle, SchedOverhead, and the event
// counters are summed over all CPUs; the machine's capacity is
// Elapsed × CPUs.
type Stats struct {
	Elapsed         time.Duration
	Idle            time.Duration
	SchedOverhead   time.Duration
	Dispatches      uint64
	Ticks           uint64
	ContextSwitches uint64
	Migrations      uint64
	CPUs            int
	MissedDeadlines uint64
	ControllerSteps uint64
	Actuations      uint64
}

// CPUStat is one CPU's accounting snapshot.
type CPUStat struct {
	// CPU is the CPU index.
	CPU int
	// Current is the thread running there right now (nil when idle, or
	// when the occupant has no public handle, e.g. the controller).
	Current *Thread
	// Idle is the time this CPU spent with nothing to run.
	Idle time.Duration
	// Dispatches and Switches count scheduler activity on this CPU.
	Dispatches uint64
	Switches   uint64
	// Migrations counts threads pulled onto this CPU by work-pull.
	Migrations uint64
}

// Stats returns a snapshot of machine accounting. Under a baseline policy
// the controller and missed-deadline counters stay zero.
func (s *System) Stats() Stats {
	ks := s.kern.Stats()
	st := Stats{
		Elapsed:         time.Duration(ks.Elapsed),
		Idle:            time.Duration(ks.Idle),
		SchedOverhead:   time.Duration(ks.Overhead),
		Dispatches:      ks.Dispatches,
		Ticks:           ks.Ticks,
		ContextSwitches: ks.Switches,
		Migrations:      ks.Migrations,
		CPUs:            ks.CPUs,
	}
	if s.rbs != nil {
		st.MissedDeadlines = s.rbs.MissedDeadlines()
	}
	if s.ctl != nil {
		st.ControllerSteps = s.ctl.Steps()
		st.Actuations = s.ctl.Actuations()
	}
	return st
}

// CPUs returns the machine's CPU count.
func (s *System) CPUs() int { return s.kern.NumCPUs() }

// CPUStats returns a per-CPU accounting snapshot: the thread each CPU is
// running, its idle time, and its dispatch/switch/migration counters.
// cmd/rrtop's per-CPU columns read from here instead of scanning threads.
func (s *System) CPUStats() []CPUStat {
	out := make([]CPUStat, s.kern.NumCPUs())
	for i := range out {
		ks := s.kern.CPUStatsOf(i)
		out[i] = CPUStat{
			CPU:        i,
			Idle:       time.Duration(ks.Idle),
			Dispatches: ks.Dispatches,
			Switches:   ks.Switches,
			Migrations: ks.MigrationsIn,
		}
		if t := s.kern.CurrentOn(i); t != nil {
			out[i].Current = handleOf(t)
		}
	}
	return out
}

// ControllerCPU returns the CPU time consumed by the control plane's
// threads — the overhead Figure 5 measures. Zero under baseline policies.
func (s *System) ControllerCPU() time.Duration {
	if s.plane == nil {
		return 0
	}
	return time.Duration(s.plane.CPUTime())
}

// TotalProportion returns the summed proportions of all registered threads
// (the overload signal). Zero under baseline policies, which have no
// reservations.
func (s *System) TotalProportion() int {
	if s.rbs == nil {
		return 0
	}
	return s.rbs.TotalProportion()
}
