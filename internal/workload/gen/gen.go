package gen

import (
	"bytes"
	"fmt"
	"time"

	realrate "repro"

	"repro/internal/sim"
)

// clockHz mirrors the default testbed clock; burst sizes are drawn in
// cycles against it.
const clockHz = 400_000_000

// overloadMaxLife caps arrival lifetimes in the overload family so the
// storm's demand drains deterministically once admissions stop.
const overloadMaxLife = 150 * time.Millisecond

// taskPlan is one concrete generated task: every parameter already drawn.
type taskPlan struct {
	name string
	kind TaskKind
	// burst is the compute burst in cycles (misc/unmanaged/interactive/rt
	// bursts, paced unit cost).
	burst int64
	// prop/period are the reservation for KindRealTime (and the event
	// period for KindInteractive).
	prop   int
	period time.Duration
	// life is how long the task runs before exiting on its own (0: forever).
	life time.Duration
	// targetPerSec/depth parameterize KindPaced.
	targetPerSec float64
	depth        float64
	// pinned marks the immortal, unkillable hog work conservation needs.
	pinned bool
	// pin is the Affinity CPU plus one (0 = unpinned); the +1 keeps the
	// zero value meaning "any CPU".
	pin int
	// importance is the weighted-fair-share weight (0 = leave the default);
	// the overload family draws it so shed order is observable.
	importance float64
}

// affinity returns the 0-based pinned CPU, or -1 when unpinned.
func (tp taskPlan) affinity() int { return tp.pin - 1 }

// pipelinePlan is one generated real-rate pipeline: a reserved producer
// feeding stages-1 real-rate threads through bounded queues.
type pipelinePlan struct {
	name       string
	stages     int // total threads, producer included (>= 2)
	qSize      int64
	block      int64 // bytes moved per producer emit / stage op
	prodCost   int64 // producer cycles per emitted block
	prodProp   int
	prodPeriod time.Duration
	// perByte is the per-stage compute intensity, cycles per byte.
	perByte []int64
}

// churnOp is one timed admission-churn operation.
type churnOp int

const (
	churnSpawn churnOp = iota
	churnKill
	churnRenegotiate
)

type churnPlan struct {
	at   time.Duration
	op   churnOp
	task taskPlan // for churnSpawn
	prop int      // for churnRenegotiate
}

type arrivalPlan struct {
	at   time.Duration
	task taskPlan
}

// Scenario is an executable generated scenario: the fully-drawn plan of an
// initial taskset, open-loop arrivals, and churn operations. Build one
// with Generate and run it (any number of times, under any policy) with
// Run.
type Scenario struct {
	Spec     Spec
	tasks    []taskPlan
	pipes    []pipelinePlan
	arrivals []arrivalPlan
	churn    []churnPlan
	sessions []sessionPlan
}

// Generate draws the concrete scenario for a spec. The same spec always
// yields the same scenario.
func Generate(spec Spec) *Scenario {
	rng := sim.NewRNG(spec.Seed*0x2545F4914F6CDD1D + 0xA5A5)
	if spec.Duration <= 0 {
		spec.Duration = 500 * time.Millisecond
	}
	sc := &Scenario{Spec: spec}
	ts := spec.Taskset

	n := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }
	n64 := func(lo, hi int64) int64 { return lo + rng.Int63n(hi-lo+1) }
	ms := func(lo, hi int) time.Duration {
		return time.Duration(n(lo, hi)) * time.Millisecond
	}

	for i := 0; i < ts.Pipelines; i++ {
		stages := 2
		if ts.MaxStages > 2 {
			stages = n(2, ts.MaxStages)
		}
		pp := pipelinePlan{
			name:       fmt.Sprintf("pipe%d", i),
			stages:     stages,
			qSize:      n64(32<<10, 1<<20),
			block:      n64(4<<10, 16<<10),
			prodCost:   n64(200_000, 600_000),
			prodProp:   n(60, 150),
			prodPeriod: ms(10, 20),
		}
		for s := 1; s < stages; s++ {
			pp.perByte = append(pp.perByte, n64(10, 60))
		}
		sc.pipes = append(sc.pipes, pp)
	}
	for i := 0; i < ts.RealTime; i++ {
		prop := n(50, 250)
		period := ms(5, 40)
		sc.tasks = append(sc.tasks, taskPlan{
			name: fmt.Sprintf("rt%d", i), kind: KindRealTime,
			prop: prop, period: period,
			// Burn ~90% of the reservation each period, so RT threads are
			// real load but do not overrun their budgets.
			burst: int64(float64(prop) / 1000 * period.Seconds() * clockHz * 0.9),
		})
	}
	for i := 0; i < ts.Interactive; i++ {
		sc.tasks = append(sc.tasks, taskPlan{
			name: fmt.Sprintf("tty%d", i), kind: KindInteractive,
			period: ms(20, 60), burst: n64(50_000, 200_000),
		})
	}
	for i := 0; i < ts.Misc; i++ {
		tp := taskPlan{
			name: fmt.Sprintf("misc%d", i), kind: KindMisc,
			burst:  n64(100_000, 400_000),
			pinned: ts.PinnedHog && i == 0,
		}
		// Every new draw below is gated on spec.Overload (or the slo
		// family's session spec) so the draw streams — and therefore the
		// scenarios — of the other families stay byte-identical to what
		// they were before the governor.
		if spec.Overload || spec.Sessions.enabled() {
			tp.importance = float64(n(1, 9))
		}
		sc.tasks = append(sc.tasks, tp)
	}
	if ts.PinnedPerCPU {
		// One immortal hog pinned to every CPU: the anchor of the per-CPU
		// work-conservation invariant on SMP machines.
		for c := 0; c < spec.NumCPUs(); c++ {
			sc.tasks = append(sc.tasks, taskPlan{
				name: fmt.Sprintf("cpuhog%d", c), kind: KindMisc,
				burst:  n64(100_000, 400_000),
				pinned: true, pin: c + 1,
			})
		}
	}
	for i := 0; i < ts.Unmanaged; i++ {
		sc.tasks = append(sc.tasks, taskPlan{
			name: fmt.Sprintf("um%d", i), kind: KindUnmanaged,
			burst: n64(100_000, 400_000),
		})
	}
	for i := 0; i < ts.Paced; i++ {
		sc.tasks = append(sc.tasks, taskPlan{
			name: fmt.Sprintf("paced%d", i), kind: KindPaced,
			burst:        n64(200_000, 800_000),
			targetPerSec: float64(n(50, 200)),
			depth:        float64(n(20, 100)),
		})
	}

	// Open-loop arrivals: realize the process, then draw per-arrival
	// parameters (lifetime included).
	for i, a := range drawArrivals(rng, spec.Arrivals, spec.Duration) {
		tp := drawArrivalTask(rng, a.Kind, fmt.Sprintf("arr%d", i))
		if spec.Arrivals.MeanLife > 0 {
			tp.life = expLife(rng, spec.Arrivals.MeanLife)
		}
		if spec.Overload {
			tp.importance = float64(n(1, 9))
			// Clamp lifetimes so the arrival storm provably subsides and
			// the recovery oracle (rung back to normal by run end) is a
			// property of the governor, not of a lucky exponential tail.
			if tp.life > overloadMaxLife {
				tp.life = overloadMaxLife
			}
		}
		sc.arrivals = append(sc.arrivals, arrivalPlan{at: a.At, task: tp})
	}

	// Churn: a Poisson stream of spawn/kill/renegotiate operations.
	if spec.Churn.Rate > 0 {
		lo, hi := spec.Churn.ReserveLo, spec.Churn.ReserveHi
		if lo <= 0 {
			lo = 50
		}
		if hi <= lo {
			hi = lo + 200
		}
		t := time.Duration(rng.Exp(float64(time.Second) / spec.Churn.Rate))
		i := 0
		for t < spec.Duration {
			cp := churnPlan{at: t}
			switch rng.Intn(5) {
			case 0, 1: // spawn a short-lived reservation near the ceiling
				period := ms(5, 50)
				prop := n(lo, hi)
				cp.op = churnSpawn
				cp.task = taskPlan{
					name: fmt.Sprintf("churn%d", i), kind: KindRealTime,
					prop: prop, period: period,
					burst: int64(float64(prop) / 1000 * period.Seconds() * clockHz * 0.9),
					life:  ms(30, 120),
				}
			case 2, 3:
				cp.op = churnKill
			default:
				cp.op = churnRenegotiate
				cp.prop = n(lo, hi)
			}
			sc.churn = append(sc.churn, cp)
			i++
			t += time.Duration(rng.Exp(float64(time.Second) / spec.Churn.Rate))
		}
	}

	// Sessions: the slo family's open-loop stream of per-user pipelines.
	// Gated on the spec so every other family's draw stream is untouched.
	if spec.Sessions.enabled() {
		maxImp := spec.Sessions.MaxImportance
		if maxImp < 1 {
			maxImp = 1
		}
		for _, at := range drawSessionArrivals(rng, spec.Sessions, spec.Duration) {
			sc.sessions = append(sc.sessions, sessionPlan{
				at:         at,
				importance: float64(n(1, maxImp)),
				bestEffort: rng.Float64() < spec.Sessions.BestEffort,
			})
		}
	}
	return sc
}

// drawArrivalTask draws the parameters of one open-loop arrival.
func drawArrivalTask(rng *sim.RNG, kind TaskKind, name string) taskPlan {
	n := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }
	n64 := func(lo, hi int64) int64 { return lo + rng.Int63n(hi-lo+1) }
	tp := taskPlan{name: name, kind: kind}
	switch kind {
	case KindRealTime:
		tp.prop = n(30, 150)
		tp.period = time.Duration(n(5, 30)) * time.Millisecond
		tp.burst = int64(float64(tp.prop) / 1000 * tp.period.Seconds() * clockHz * 0.9)
	case KindInteractive:
		tp.period = time.Duration(n(20, 60)) * time.Millisecond
		tp.burst = n64(50_000, 200_000)
	case KindPaced:
		tp.burst = n64(200_000, 800_000)
		tp.targetPerSec = float64(n(50, 200))
		tp.depth = float64(n(20, 100))
	default: // misc, unmanaged
		tp.burst = n64(100_000, 400_000)
	}
	return tp
}

// expLife draws an exponential lifetime, floored so a task always gets a
// chance to run.
func expLife(rng *sim.RNG, mean time.Duration) time.Duration {
	l := time.Duration(rng.Exp(float64(mean)))
	if l < 5*time.Millisecond {
		l = 5 * time.Millisecond
	}
	return l
}

// Threads returns the size of the initial taskset (pipelines expanded).
func (sc *Scenario) Threads() int {
	total := len(sc.tasks)
	for _, pp := range sc.pipes {
		total += pp.stages
	}
	return total
}

// Arrivals returns the number of open-loop arrivals in the plan.
func (sc *Scenario) Arrivals() int { return len(sc.arrivals) }

// Pipelines returns the number of generated pipelines.
func (sc *Scenario) Pipelines() int { return len(sc.pipes) }

// ChurnOps returns the number of planned churn operations.
func (sc *Scenario) ChurnOps() int { return len(sc.churn) }

// Sessions returns the number of planned session arrivals.
func (sc *Scenario) Sessions() int { return len(sc.sessions) }

// Policies lists the public policy constructors the harness runs under, in
// a fixed order: the paper's RBS plus every baseline.
func Policies() []string {
	return []string{"rbs", "stride", "lottery", "linux", "round-robin"}
}

// policyFor builds a fresh policy instance by name. The lottery PRNG is
// seeded from the scenario seed, so lottery runs are reproducible too.
func policyFor(name string, seed uint64) (realrate.Policy, error) {
	switch name {
	case "rbs":
		return realrate.RBS(), nil
	case "stride":
		return realrate.Stride(10 * time.Millisecond), nil
	case "lottery":
		return realrate.Lottery(10*time.Millisecond, seed|1), nil
	case "linux":
		return realrate.Linux(), nil
	case "round-robin":
		return realrate.RoundRobin(10 * time.Millisecond), nil
	}
	return nil, fmt.Errorf("gen: unknown policy %q (have %v)", name, Policies())
}

// RunOpts configures one execution of a scenario.
type RunOpts struct {
	// Policy names the scheduling discipline (see Policies). Empty = rbs.
	Policy string
	// Trace records the dispatch trace; RunResult.TraceCSV holds the raw
	// CSV (the byte-identity surface of the determinism property test).
	Trace bool
	// Observer, when non-nil, is registered alongside the checker.
	Observer realrate.Observer
	// Controller selects the control-plane sampling mode: "periodic"
	// (default) or "event".
	Controller string
	// Shards splits the controller across this many staggered shard
	// threads (0 or 1: one shard, the paper's single controller thread).
	Shards int
	// NoInvariants skips the invariant checker and nothing else: the
	// workload, including the session driver, runs the same code either
	// way. Large-scale perf runs (rrexp -slo at 100k+ sessions,
	// BenchmarkSLOSessions) pay for the workload, not the oracles; the
	// session counters, session oracles and SLO report are still
	// produced, but Report carries no checker counters and Allocations
	// is nil.
	NoInvariants bool
}

// RunResult is the outcome of one scenario execution.
type RunResult struct {
	Policy   string
	Report   Report
	TraceCSV []byte
	// Health is the system's fault-tolerance snapshot at the end of the
	// run (all zeros outside the faults family).
	Health realrate.Health
	// Allocations maps thread name → end-of-run allocation state for
	// every tracked thread still alive. The convergence differential
	// oracle compares these across control-plane configurations.
	Allocations map[string]EndState
	// CtlStats is the control plane's per-shard counter snapshot (nil
	// under baselines).
	CtlStats []realrate.ShardStat
	// SLO is the system's latency-SLO accounting snapshot (zero unless a
	// governor was armed — the overload and slo families).
	SLO realrate.SLOReport
}

// EndState is one thread's allocation at the end of a run.
type EndState struct {
	// Allocated is the instantaneous proportion in ppt.
	Allocated int
	// Smoothed is the checker's allocation EWMA (≈300 ms time constant) —
	// the convergence-comparison surface, robust to squish transients and
	// event-plane staleness windows that make any single instant noisy.
	Smoothed int
	// Class is the controller's taxonomy class for the thread
	// ("real-rate", "miscellaneous", ...).
	Class string
}

// run is the live execution state of one scenario under one policy.
type run struct {
	sc     *Scenario
	sys    *realrate.System
	policy string
	rng    *sim.RNG // runtime draws: churn targets
	chk    *checker
	sess   *sessionRun

	// killable/rt are the live churn pools, in spawn order (deterministic).
	killable []*realrate.Thread
	rt       []*realrate.Thread
}

// Run executes the scenario under one policy and returns the invariant
// report. Executions are independent: the same scenario can be run under
// every policy, or twice under one (byte-identical traces).
func (sc *Scenario) Run(opts RunOpts) (*RunResult, error) {
	name := opts.Policy
	if name == "" {
		name = "rbs"
	}
	pol, err := policyFor(name, sc.Spec.Seed)
	if err != nil {
		return nil, err
	}
	cfg := realrate.Config{Policy: pol, CPUs: sc.Spec.CPUs}
	switch opts.Controller {
	case "", "periodic":
	case "event":
		cfg.CtlPlane.Mode = realrate.ControllerEventDriven
	default:
		return nil, fmt.Errorf("gen: unknown controller mode %q (want periodic or event)", opts.Controller)
	}
	cfg.CtlPlane.Shards = opts.Shards
	if len(sc.Spec.Faults) > 0 {
		// Remap drawn stall CPUs onto the actual machine and arm a fast
		// watchdog (6 flat intervals down a rung, 3 good ones back up) so
		// the short generated runs walk the full degradation ladder.
		specs := make([]realrate.FaultSpec, len(sc.Spec.Faults))
		copy(specs, sc.Spec.Faults)
		for i := range specs {
			if specs[i].Kind == realrate.FaultCPUStall {
				specs[i].CPU %= sc.Spec.NumCPUs()
			}
		}
		cfg.Faults = &realrate.FaultPlan{Seed: sc.Spec.Seed, Specs: specs}
		cfg.Controller.WatchdogIntervals = 6
		cfg.Controller.WatchdogRecovery = 3
	}
	if sc.Spec.Overload {
		// Fast governor tuning for short generated runs: trip after 5
		// saturated intervals (~50 ms at the default 10 ms interval), walk
		// back up after 7 healthy ones, so a 1 s storm can climb the ladder
		// and still recover to normal before the run ends.
		cfg.Overload = &realrate.OverloadConfig{
			TripIntervals:    5,
			RecoverIntervals: 7,
			ShedBatch:        1,
			LatencySLO:       5 * time.Millisecond,
		}
	}
	if sc.Spec.Sessions.enabled() && cfg.Overload == nil {
		// The slo family always runs governed: sessions are refused (not
		// queued) under overload, and shed order follows drawn importance.
		// Slightly more lenient than the overload family's tuning — session
		// storms are the workload here, not a transient to recover from —
		// and SessionSLO arms the end-to-end session latency dimension of
		// the SLO report.
		cfg.Overload = &realrate.OverloadConfig{
			TripIntervals:    6,
			RecoverIntervals: 8,
			ShedBatch:        2,
			LatencySLO:       5 * time.Millisecond,
			SessionSLO:       sc.Spec.Sessions.Deadline,
		}
	}
	sys := realrate.NewSystem(cfg)
	r := &run{
		sc:     sc,
		sys:    sys,
		policy: name,
		rng:    sim.NewRNG(sc.Spec.Seed ^ 0xC0FFEE),
	}
	if !opts.NoInvariants {
		r.chk = newChecker(sys, name, sc)
		sys.Observe(r.chk)
	}
	if sc.Spec.Sessions.enabled() {
		r.sess = newSessionRun(r, sc.Spec.Sessions)
		sys.Observe(r.sess)
	}
	if opts.Observer != nil {
		sys.Observe(opts.Observer)
	}
	var tr *realrate.Tracing
	if opts.Trace {
		tr = sys.EnableTracing()
	}

	r.spawnInitial()
	r.scheduleArrivals()
	r.scheduleChurn()
	if r.sess != nil {
		r.sess.schedule(sc.sessions)
	}
	r.chk.startSampling()
	sys.Run(sc.Spec.Duration)
	r.chk.finish()

	res := &RunResult{Policy: name, Health: sys.Health(), CtlStats: sys.ShardStats(), SLO: sys.SLO()}
	if r.chk != nil {
		res.Report = r.chk.report()
		res.Allocations = make(map[string]EndState, len(r.chk.tracked))
		for _, tt := range r.chk.tracked {
			if tt.th.State() != "exited" {
				res.Allocations[tt.name] = EndState{Allocated: tt.th.Allocation(),
					Smoothed: int(tt.allocEWMA + 0.5), Class: tt.th.Class()}
			}
		}
	} else {
		res.Report = Report{Policy: name}
	}
	if r.sess != nil {
		r.sess.finish(sys, &res.SLO)
		res.Report.Sessions = r.sess.report()
		res.Report.Violations = append(res.Report.Violations, r.sess.violations...)
	}
	if tr != nil {
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			return nil, err
		}
		res.TraceCSV = buf.Bytes()
	}
	return res, nil
}

// spawnInitial builds the resident taskset through the public API.
func (r *run) spawnInitial() {
	for pi := range r.sc.pipes {
		r.spawnPipeline(&r.sc.pipes[pi])
	}
	for i := range r.sc.tasks {
		r.spawnTask(r.sc.tasks[i])
	}
}

// spawnPipeline spawns one producer → stages chain through bounded queues.
// Pipeline stages are not churnable: killing a mid-stage would wedge the
// pipeline on a full or empty queue, which is a valid state but makes
// every downstream throughput signal vacuous.
func (r *run) spawnPipeline(pp *pipelinePlan) {
	queues := make([]*realrate.Queue, pp.stages-1)
	for i := range queues {
		queues[i] = r.sys.NewQueue(fmt.Sprintf("%s.q%d", pp.name, i), pp.qSize)
		r.chk.watchQueue(queues[i])
	}
	prod := producerProgram(queues[0], pp.block, pp.prodCost)
	th, err := r.sys.Spawn(pp.name+".src", prod,
		realrate.Reserve(pp.prodProp, pp.prodPeriod))
	r.chk.spawned(th, err, false, -1)
	for s := 1; s < pp.stages; s++ {
		var out *realrate.Queue
		if s < pp.stages-1 {
			out = queues[s]
		}
		stage := stageProgram(queues[s-1], out, pp.block, pp.perByte[s-1])
		opts := []realrate.SpawnOption{}
		sources := []realrate.ProgressSource{realrate.ConsumerOf(queues[s-1])}
		if out != nil {
			sources = append(sources, realrate.ProducerOf(out))
		}
		opts = append(opts, realrate.RealRate(0, sources...))
		sth, err := r.sys.Spawn(fmt.Sprintf("%s.s%d", pp.name, s), stage, opts...)
		r.chk.spawned(sth, err, false, -1)
		r.chk.watchRealRate(sth, err)
	}
}

// spawnTask spawns one non-pipeline task and registers it in the churn
// pools.
func (r *run) spawnTask(tp taskPlan) {
	var (
		th  *realrate.Thread
		err error
	)
	dieAt := time.Duration(0)
	if tp.life > 0 {
		dieAt = r.sys.Now() + tp.life
	}
	var pin []realrate.SpawnOption
	if tp.pin > 0 {
		pin = []realrate.SpawnOption{realrate.Affinity(tp.affinity())}
	}
	with := func(opts ...realrate.SpawnOption) []realrate.SpawnOption {
		return append(opts, pin...)
	}
	switch tp.kind {
	case KindMisc:
		var opts []realrate.SpawnOption
		if tp.importance > 0 {
			opts = append(opts, realrate.Importance(tp.importance))
		}
		th, err = r.sys.Spawn(tp.name, hogProgram(tp.burst, dieAt), with(opts...)...)
	case KindUnmanaged:
		th, err = r.sys.Spawn(tp.name, hogProgram(tp.burst, dieAt), with(realrate.Unmanaged())...)
	case KindRealTime:
		th, err = r.sys.Spawn(tp.name, rtProgram(tp.burst, tp.period, dieAt),
			with(realrate.Reserve(tp.prop, tp.period))...)
	case KindInteractive:
		wq := r.sys.NewWaitQueue(tp.name + ".tty")
		th, err = r.sys.Spawn(tp.name, interactiveProgram(wq, tp.burst, dieAt),
			with(realrate.Interactive())...)
		if err == nil {
			r.sys.Every(tp.period, func(now time.Duration) { wq.WakeOne() })
		}
	case KindPaced:
		pace := realrate.NewPace(tp.name, tp.targetPerSec, tp.depth)
		th, err = r.sys.Spawn(tp.name, pacedProgram(pace, tp.burst, dieAt),
			with(realrate.RealRate(30*time.Millisecond, pace))...)
	}
	r.chk.spawned(th, err, tp.pinned, tp.affinity())
	if err != nil {
		return
	}
	if tp.kind == KindPaced {
		// After spawned(): watchRealRate resolves the tracked entry.
		r.chk.watchRealRate(th, err)
	}
	if !tp.pinned {
		r.killable = append(r.killable, th)
	}
	if tp.kind == KindRealTime {
		r.rt = append(r.rt, th)
		r.chk.setNegotiated(th, tp.prop)
	}
}

// scheduleArrivals injects the open-loop arrival plan through After.
func (r *run) scheduleArrivals() {
	for i := range r.sc.arrivals {
		ap := r.sc.arrivals[i]
		r.sys.After(ap.at, func(now time.Duration) {
			r.spawnTask(ap.task)
		})
	}
}

// scheduleChurn injects the admission-churn plan. Kill and renegotiate
// targets are drawn at execution time from the live pools with the
// run-local RNG: deterministic for a (scenario, policy) pair.
func (r *run) scheduleChurn() {
	for i := range r.sc.churn {
		cp := r.sc.churn[i]
		r.sys.After(cp.at, func(now time.Duration) {
			switch cp.op {
			case churnSpawn:
				r.spawnTask(cp.task)
			case churnKill:
				r.prune()
				if len(r.killable) == 0 {
					return
				}
				th := r.killable[r.rng.Intn(len(r.killable))]
				th.Kill()
				r.chk.killed(th, now)
			case churnRenegotiate:
				if r.policy != "rbs" {
					return // baselines have no reservations to renegotiate
				}
				r.prune()
				if len(r.rt) == 0 {
					return
				}
				th := r.rt[r.rng.Intn(len(r.rt))]
				if err := th.Renegotiate(cp.prop); err == nil {
					r.chk.setNegotiated(th, cp.prop)
				}
			}
		})
	}
}

// prune drops exited threads from the churn pools (exits are announced via
// the checker's OnExit, but pools are pruned lazily here to keep the
// checker free of run bookkeeping).
func (r *run) prune() {
	live := r.killable[:0]
	for _, th := range r.killable {
		if th.State() != "exited" {
			live = append(live, th)
		}
	}
	r.killable = live
	rts := r.rt[:0]
	for _, th := range r.rt {
		if th.State() != "exited" {
			rts = append(rts, th)
		}
	}
	r.rt = rts
}

// --- generated thread programs ---
// All programs check their death time between operations and exit on their
// own; Kill handles the forced-removal paths.

// hogProgram computes forever in bursts (the canonical CPU-bound load).
func hogProgram(burst int64, dieAt time.Duration) realrate.Program {
	return realrate.ProgramFunc(func(th *realrate.Thread, now time.Duration) realrate.Action {
		if dieAt > 0 && now >= dieAt {
			return realrate.Exit()
		}
		return realrate.Compute(burst)
	})
}

// rtProgram burns one burst per period on an absolute schedule.
func rtProgram(burst int64, period time.Duration, dieAt time.Duration) realrate.Program {
	var next time.Duration
	compute := true
	return realrate.ProgramFunc(func(th *realrate.Thread, now time.Duration) realrate.Action {
		if dieAt > 0 && now >= dieAt {
			return realrate.Exit()
		}
		if next == 0 {
			next = now + period
		}
		if compute {
			compute = false
			return realrate.Compute(burst)
		}
		compute = true
		at := next
		next += period
		return realrate.SleepUntil(at)
	})
}

// interactiveProgram waits for tty events and handles each with a burst.
func interactiveProgram(wq *realrate.WaitQueue, burst int64, dieAt time.Duration) realrate.Program {
	waiting := false
	return realrate.ProgramFunc(func(th *realrate.Thread, now time.Duration) realrate.Action {
		if dieAt > 0 && now >= dieAt {
			return realrate.Exit()
		}
		waiting = !waiting
		if waiting {
			return realrate.Wait(wq)
		}
		return realrate.Compute(burst)
	})
}

// pacedProgram computes one work unit per burst and reports it to the pace.
func pacedProgram(pace *realrate.Pace, unit int64, dieAt time.Duration) realrate.Program {
	first := true
	return realrate.ProgramFunc(func(th *realrate.Thread, now time.Duration) realrate.Action {
		if dieAt > 0 && now >= dieAt {
			return realrate.Exit()
		}
		if !first {
			pace.Complete(1)
		}
		first = false
		return realrate.Compute(unit)
	})
}

// producerProgram alternates a compute burst and a block emit.
func producerProgram(out *realrate.Queue, block, cost int64) realrate.Program {
	compute := true
	return realrate.ProgramFunc(func(th *realrate.Thread, now time.Duration) realrate.Action {
		compute = !compute
		if !compute {
			return realrate.Compute(cost)
		}
		return realrate.Produce(out, block)
	})
}

// stageProgram consumes a block, processes it, and (for middle stages)
// forwards it.
func stageProgram(in, out *realrate.Queue, block, perByte int64) realrate.Program {
	phase := 0
	return realrate.ProgramFunc(func(th *realrate.Thread, now time.Duration) realrate.Action {
		switch phase {
		case 0:
			phase = 1
			return realrate.Consume(in, block)
		case 1:
			if out != nil {
				phase = 2
			} else {
				phase = 0
			}
			return realrate.Compute(block * perByte)
		default:
			phase = 0
			return realrate.Produce(out, block)
		}
	})
}
