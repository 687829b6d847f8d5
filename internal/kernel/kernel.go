// Package kernel simulates the machine the paper's prototype ran on — a
// Linux 2.0.35 box with a 1 ms timer interrupt — generalized from the
// paper's single CPU to Config.CPUs homogeneous CPUs with per-CPU run
// state, round-robin placement, work-pull migration (an idle CPU steals
// from its peers in ring order), and CPU affinity. With CPUs=1 the
// machine reproduces the paper's dispatch schedules byte-for-byte. It
// provides threads driven by Programs, a pluggable scheduling Policy
// (with per-CPU run-queue shards), sleep deadlines processed at timer
// interrupts (do_timers), in-kernel bounded byte queues (the pipe/socket
// analog used by the symbiotic interfaces), and mutexes (for the
// priority-inversion scenarios).
//
// The kernel charges fixed cycle costs for dispatches, timer interrupts,
// and context switches. Those costs are what Figure 8 of the
// paper measures, so they are first-class simulated work, not bookkeeping.
package kernel

import (
	"fmt"

	"repro/internal/sim"
)

// The paper's testbed calibration (see DESIGN.md): a 400 MHz CPU with
// ~2700 cycles of total per-dispatch overhead, which puts Figure 8's knee
// at 4 kHz with ≈2.7% overhead.
const (
	// ClockRate is the CPU clock. The paper's testbed is a 400 MHz
	// Pentium II.
	ClockRate sim.Hz = 400_000_000
	// DispatchCost is charged per schedule() invocation.
	DispatchCost sim.Cycles = 1900
	// TickCost is charged per timer interrupt (do_timers etc.).
	TickCost sim.Cycles = 900
	// SwitchCost is charged when a dispatch picks a different thread than
	// the one that ran last (context-switch overhead).
	SwitchCost sim.Cycles = 200
)

// Config sizes the simulated machine.
type Config struct {
	// TickInterval is the timer-interrupt period; the prototype sets the
	// timer interval (and hence the upper bound on the dispatch interval)
	// to 1 millisecond.
	TickInterval sim.Duration
	// CPUs is the number of CPUs (0 means 1). Each CPU runs at most one
	// thread at a time; the timer interrupt is processed once per tick
	// with TickCost charged per CPU, and every CPU gets a dispatch point
	// at every tick. With CPUs=1 the machine is exactly the paper's
	// single-CPU testbed.
	CPUs int
	// Recycle turns on spawn→exit pooling for the whole machine: the
	// kernel's thread objects, and the per-thread state of the policy and
	// controller built on it (rbs.Policy.Attach and core.New read it).
	// A thread that exits without holding a mutex is scrubbed and returned
	// to a free pool, and the next Spawn reissues the object under a fresh
	// ID and a bumped generation (Thread.Gen), so churn-heavy workloads
	// run the spawn→exit cycle without growing the heap. Callers that
	// retain *Thread pointers past exit must leave it off (or validate
	// generations); the public realrate layer does the latter. Off, exited
	// threads stay reachable forever.
	Recycle bool
	// Faults is the optional fault injector; nil keeps a healthy machine
	// on the injector-nil fast path.
	Faults FaultInjector
}

// NumCPUs returns the normalized CPU count (at least 1).
func (c Config) NumCPUs() int {
	if c.CPUs < 1 {
		return 1
	}
	return c.CPUs
}

// DefaultConfig matches the paper's testbed: one CPU and a 1 ms tick.
func DefaultConfig() Config {
	return Config{TickInterval: sim.Millisecond}
}

// FaultInjector is the kernel's slice of the fault-injection seam (see
// internal/faults): consulted at the timer interrupt for clock jitter and
// at every dispatch point for CPU stall windows. Implementations must not
// mutate kernel state. The zero-cost default is no injector: the hot paths
// pay a single nil check.
type FaultInjector interface {
	// TickDelay returns extra delay to add before the next timer
	// interrupt (clock jitter). Zero means an on-time tick.
	TickDelay(now sim.Time, interval sim.Duration) sim.Duration
	// CPUStalled reports whether the given CPU must skip this dispatch
	// point and go idle, leaving its runnable threads for peers to pull.
	CPUStalled(cpu int, now sim.Time) bool
}

// Tracer receives scheduling events as they happen. Implementations must
// not mutate kernel state. The zero-cost default is no tracer.
type Tracer interface {
	// OnDispatch fires when a thread begins a run segment.
	OnDispatch(now sim.Time, t *Thread)
	// OnDeschedule fires when a thread stops running, with the time it
	// ran and why it stopped.
	OnDeschedule(now sim.Time, t *Thread, ran sim.Duration)
	// OnWake fires when a blocked or sleeping thread becomes runnable.
	OnWake(now sim.Time, t *Thread)
	// OnBlock fires when a thread blocks voluntarily on wq (wq.Label()
	// names it).
	OnBlock(now sim.Time, t *Thread, wq *WaitQueue)
	// OnMigration fires when a thread is moved between CPUs (work-pull on
	// an idle CPU). It never fires on a single-CPU machine.
	OnMigration(now sim.Time, t *Thread, from, to int)
}

// Stats aggregates machine-level accounting, summed over all CPUs.
type Stats struct {
	Elapsed    sim.Duration
	Idle       sim.Duration
	Overhead   sim.Duration
	Dispatches uint64
	Ticks      uint64
	Switches   uint64
	TimerFires uint64
	Wakeups    uint64
	Migrations uint64
	// Exits counts threads that left the machine for good — program Exit
	// and forced Retires alike. Retires counts only the forced removals
	// (admission-undo and overload shedding), so Exits − Retires is the
	// count of natural completions.
	Exits   uint64
	Retires uint64
	// CPUs is the machine's CPU count; capacity is Elapsed × CPUs.
	CPUs int
}

// ThreadTime returns the portion of the machine's capacity (Elapsed per
// CPU) spent running threads.
func (s Stats) ThreadTime() sim.Duration {
	n := s.CPUs
	if n < 1 {
		n = 1
	}
	return sim.Duration(int64(s.Elapsed)*int64(n)) - s.Idle - s.Overhead
}

// CPUStats is per-CPU accounting.
type CPUStats struct {
	// Idle is the time this CPU spent with nothing to run.
	Idle sim.Duration
	// Dispatches and Switches count scheduler activity on this CPU.
	Dispatches uint64
	Switches   uint64
	// MigrationsIn counts threads pulled onto this CPU.
	MigrationsIn uint64
}

// Kernel is the simulated machine: one or more CPUs (Config.CPUs) driven
// by one timer interrupt, entirely deterministic; all activity is driven
// by the sim.Engine event loop.
type Kernel struct {
	eng    *sim.Engine
	cfg    Config
	policy Policy

	threads []*Thread
	nextID  int

	// thrSlab is the current chunk backing new Thread objects: spawns carve
	// fresh zeroed threads out of it so an admission storm costs one
	// allocation per chunk instead of one per thread.
	thrSlab []Thread
	// carved counts the Thread objects cut from slab chunks so far; it is
	// the next object's slot index (Thread.Slot).
	carved int32
	// queueSlab backs NewQueue the same way: session-pipeline storms
	// create queues in the tens of thousands.
	queueSlab []Queue
	// freeThread heads the free list of recycled thread objects (recycle
	// mode only); exitStub is the sentinel substituted for a recycled
	// thread anywhere the per-CPU lastRan pointer still names it, so the
	// switch-cost identity test behaves exactly as it would against a
	// stale, never-reissued pointer.
	freeThread *Thread
	exitStub   Thread

	// cpus holds the per-CPU run state; cpus[0] is the boot CPU. The
	// slice is sized once at construction and never moves.
	cpus []cpu
	// nextPlace is the CPU the next unpinned thread lands on: placement
	// is round-robin over the CPUs, which spreads an initial taskset
	// evenly; work-pull (see pull) corrects transient imbalance.
	nextPlace int

	sleepers sleepHeap
	tickEv   *sim.Event
	started  bool
	stopped  bool
	baseTime sim.Time

	// tickFn is the tick callback bound once at construction; binding a
	// method value per schedule would allocate on every tick.
	tickFn func(sim.Time)

	// busy guards against re-entrant dispatch: wakeups that occur while the
	// kernel is already inside tick/dispatch processing must not recurse
	// into the scheduler; the enclosing handler finishes the job.
	busy int

	tracer Tracer
	// onExit, when set, fires after a thread leaves the machine for good —
	// whether its program returned Exit() or it was forcibly Retired. The
	// public layer uses it to drop per-thread indexes, so churn-heavy
	// workloads (high-rate spawn/remove cycles) cannot accumulate stale
	// entries.
	onExit func(t *Thread, now sim.Time)

	stats Stats
}

// cpu is the per-CPU run state: the running thread, its active segment,
// idle bookkeeping, and the pending-overhead account that delays the next
// run segment on this CPU.
type cpu struct {
	id      int
	current *Thread
	seg     *segment
	lastRan *Thread

	idleSince sim.Time
	idling    bool

	// pendingOverhead is kernel time that must elapse before the next run
	// segment begins on this CPU; overheadOn accumulates it, startRun
	// consumes it.
	pendingOverhead sim.Duration

	// segEndFn is this CPU's segment-end callback, bound once at
	// construction; segStore is the CPU's single segment object, reused
	// across run segments (a CPU has at most one segment active).
	segEndFn func(sim.Time)
	segStore segment

	// dispatching is the thread a dispatch on this CPU is driving through
	// prepare, before it becomes current (see Movable).
	dispatching *Thread

	stats CPUStats
}

// segment is one contiguous stretch of one CPU given to a thread.
type segment struct {
	t     *Thread
	start sim.Time
	end   sim.Time
	ev    *sim.Event
}

// New creates a kernel on the given engine with the given policy. The
// policy must not be shared between kernels.
func New(eng *sim.Engine, cfg Config, policy Policy) *Kernel {
	if cfg.TickInterval <= 0 {
		panic("kernel: TickInterval must be positive")
	}
	k := &Kernel{
		eng:      eng,
		cfg:      cfg,
		policy:   policy,
		baseTime: eng.Now(),
	}
	k.stats.CPUs = cfg.NumCPUs()
	k.cpus = make([]cpu, cfg.NumCPUs())
	for i := range k.cpus {
		c := &k.cpus[i]
		c.id = i
		c.segEndFn = func(now sim.Time) { k.segmentEnd(c, now) }
	}
	k.tickFn = k.tick
	policy.Attach(k)
	return k
}

// Engine returns the kernel's simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Config returns the kernel's configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Tick returns the timer-interrupt period, Config().TickInterval without
// copying the whole configuration on a policy's dispatch path.
func (k *Kernel) Tick() sim.Duration { return k.cfg.TickInterval }

// Policy returns the scheduling policy.
func (k *Kernel) Policy() Policy { return k.policy }

// Now returns the current simulated time.
func (k *Kernel) Now() sim.Time { return k.eng.Now() }

// NumCPUs returns the number of CPUs.
func (k *Kernel) NumCPUs() int { return len(k.cpus) }

// Current returns the thread on CPU 0, or nil when it is idle. On a
// multi-CPU machine use CurrentOn.
func (k *Kernel) Current() *Thread { return k.cpus[0].current }

// CurrentOn returns the thread running on the given CPU, or nil when idle.
func (k *Kernel) CurrentOn(cpu int) *Thread { return k.cpus[cpu].current }

// Threads returns the machine's threads. Without recycling (the default)
// that is every thread ever created, including exited ones; with recycling
// (Config.Recycle) exited threads leave the list when their objects return
// to the pool, so the slice holds only live threads and its order is not
// the creation order. The slice must not be modified.
func (k *Kernel) Threads() []*Thread { return k.threads }

// FreeThreads returns the current depth of the recycled-thread pool — the
// number of exited thread objects banked for reissue. Exposed so leak
// tests can assert the pool is bounded by the peak live population (a
// free list that outgrows peak-live means something is retiring objects
// it never owned).
func (k *Kernel) FreeThreads() int {
	n := 0
	for t := k.freeThread; t != nil; t = t.freeNext {
		n++
	}
	return n
}

// Stats returns a snapshot of machine-level accounting. Elapsed is measured
// from kernel creation; Idle includes partial in-progress idle spans and is
// summed over all CPUs.
func (k *Kernel) Stats() Stats {
	s := k.stats
	s.Elapsed = k.Now().Sub(k.baseTime)
	for i := range k.cpus {
		if k.cpus[i].idling {
			s.Idle += k.Now().Sub(k.cpus[i].idleSince)
		}
	}
	return s
}

// Migrations returns how many times any thread changed CPUs. migrate is
// the only place a thread's CPU changes after spawn, so an unchanged count
// proves every live thread is still where it was — the control plane's
// re-homing gate. Cheaper than building Stats.
func (k *Kernel) Migrations() uint64 { return k.stats.Migrations }

// CPUStatsOf returns a snapshot of one CPU's accounting, including a
// partial in-progress idle span.
func (k *Kernel) CPUStatsOf(cpu int) CPUStats {
	c := &k.cpus[cpu]
	s := c.stats
	if c.idling {
		s.Idle += k.Now().Sub(c.idleSince)
	}
	return s
}

// SetTracer installs (or clears, with nil) a scheduling-event tracer.
func (k *Kernel) SetTracer(tr Tracer) { k.tracer = tr }

// SetExitHook installs (or clears, with nil) a callback fired exactly once
// when a thread exits — via Exit or Retire. The callback runs after the
// thread is fully removed from the policy, so it may inspect but must not
// re-enqueue the thread.
func (k *Kernel) SetExitHook(fn func(t *Thread, now sim.Time)) { k.onExit = fn }

// cyclesDur converts a cycle count to a duration at this machine's clock.
func (k *Kernel) cyclesDur(c sim.Cycles) sim.Duration {
	return sim.CyclesToDuration(c, ClockRate)
}

// Spawn creates a thread running program and makes it runnable on any CPU.
// Threads can be spawned before Start or at any point during the
// simulation.
func (k *Kernel) Spawn(name string, program Program) *Thread {
	return k.SpawnAffinity(name, program, AffinityAny)
}

// SpawnAffinity is Spawn with a CPU pin: affinity >= 0 fixes the thread to
// that CPU forever (it is never migrated); AffinityAny places it
// round-robin and lets work-pull move it.
func (k *Kernel) SpawnAffinity(name string, program Program, affinity int) *Thread {
	if affinity != AffinityAny && (affinity < 0 || affinity >= len(k.cpus)) {
		panic(fmt.Sprintf("kernel: affinity %d outside [0,%d)", affinity, len(k.cpus)))
	}
	t := k.allocThread()
	t.id = k.nextID
	t.name = name
	t.program = program
	t.kern = k
	t.state = StateReady
	t.affinity = int32(affinity)
	switch {
	case affinity != AffinityAny:
		t.cpu = int32(affinity)
	case len(k.cpus) > 1:
		t.cpu = int32(k.nextPlace)
		k.nextPlace = (k.nextPlace + 1) % len(k.cpus)
	}
	k.nextID++
	t.listIdx = int32(len(k.threads))
	k.threads = append(k.threads, t)
	now := k.Now()
	k.policy.AddThread(t, now)
	k.policy.Enqueue(t, now)
	if k.started && !k.stopped {
		k.reschedule(now)
	}
	return t
}

// Start begins the periodic timer interrupt and performs the first
// dispatch. It must be called exactly once.
func (k *Kernel) Start() {
	if k.started {
		panic("kernel: Start called twice")
	}
	k.started = true
	k.scheduleTick(k.Now().Add(k.cfg.TickInterval))
	for i := range k.cpus {
		k.dispatch(&k.cpus[i], k.Now())
	}
}

// Stop halts the timer interrupt and stops dispatching. The simulation can
// still drain remaining engine events.
func (k *Kernel) Stop() {
	if k.stopped {
		return
	}
	for i := range k.cpus {
		c := &k.cpus[i]
		if c.seg != nil {
			k.chargeSegment(c, k.Now())
		}
		k.endIdle(c, k.Now())
	}
	k.stopped = true
	if k.tickEv != nil {
		k.tickEv.Cancel()
	}
}

// scheduleTick arms the next timer interrupt, reusing the single tick
// event: after the first tick, re-arming is a pool-free Reschedule.
func (k *Kernel) scheduleTick(at sim.Time) {
	if k.tickEv == nil {
		k.tickEv = k.eng.At(at, k.tickFn)
	} else {
		k.eng.Reschedule(k.tickEv, at)
	}
}

// PendingTimers returns the number of sleeping threads waiting for their
// wake deadline.
func (k *Kernel) PendingTimers() int { return k.sleepers.n }

// tick is the timer interrupt: every CPU is interrupted, expired sleep
// deadlines are processed once (globally), and every CPU reaches a
// dispatch point.
func (k *Kernel) tick(now sim.Time) {
	if k.stopped {
		return
	}
	k.stats.Ticks++
	k.busy++
	// Interrupt whatever is running and charge the partial segments; each
	// CPU pays for its own interrupt handler.
	for i := range k.cpus {
		c := &k.cpus[i]
		k.chargeSegment(c, now)
		k.overheadOn(c, TickCost)
	}
	// do_timers: wake the sleepers whose deadlines have passed.
	k.stats.TimerFires += uint64(k.expireSleepers(now))
	next := now.Add(k.cfg.TickInterval)
	if k.cfg.Faults != nil {
		// Clock jitter: the injector may push the next interrupt late.
		next = next.Add(k.cfg.Faults.TickDelay(now, k.cfg.TickInterval))
	}
	k.scheduleTick(next)
	k.busy--
	for i := range k.cpus {
		c := &k.cpus[i]
		if k.cfg.Faults != nil && k.cfg.Faults.CPUStalled(c.id, now) {
			// Stall window: this CPU skips its dispatch point and idles.
			// Its current thread goes back to ready but stays in the
			// policy's structures, so an idle peer can work-pull it.
			if cur := c.current; cur != nil {
				c.current = nil
				if cur.state == StateRunning {
					cur.state = StateReady
				}
			}
			k.beginIdle(c, now)
			continue
		}
		// The policy's tick hook is per CPU: only a CPU whose current
		// thread was beaten by an enqueue re-dispatches; the rest resume
		// their interrupted threads without paying DispatchCost.
		resched := k.policy.Tick(c.id, now)
		switch {
		case c.current == nil:
			k.dispatch(c, now)
		case resched:
			cur := c.current
			c.current = nil
			if cur.state == StateRunning {
				cur.state = StateReady
			}
			k.dispatch(c, now)
		default:
			// Resume the interrupted thread without a full dispatch.
			k.beginSegment(c, c.current, now)
		}
	}
}

// overheadOn records cycles consumed by the kernel on one CPU. The cost is
// made real by delaying the start of that CPU's next run segment.
func (k *Kernel) overheadOn(c *cpu, cy sim.Cycles) {
	if cy <= 0 {
		return
	}
	d := k.cyclesDur(cy)
	k.stats.Overhead += d
	c.pendingOverhead += d
}

// dispatch runs the scheduler on one CPU: pick a thread and start a run
// segment, or go idle. The caller must have cleared c.current and c.seg.
// An idle CPU with an empty shard pulls work from a peer (see pull)
// before giving up.
func (k *Kernel) dispatch(c *cpu, now sim.Time) {
	if k.stopped {
		return
	}
	if k.cfg.Faults != nil && k.cfg.Faults.CPUStalled(c.id, now) {
		// Stall window: wakeup- and reschedule-driven dispatches also skip
		// this CPU; the next healthy tick resumes normal dispatching.
		c.current = nil
		k.beginIdle(c, now)
		return
	}
	k.stats.Dispatches++
	c.stats.Dispatches++
	k.busy++
	defer func() { k.busy-- }()
	k.overheadOn(c, DispatchCost)
	pulled := false
	for {
		t := k.policy.Pick(c.id, now)
		if t == nil {
			if !pulled && len(k.cpus) > 1 {
				// Work-pull: one migration attempt per dispatch.
				pulled = true
				if m := k.pull(c.id, now); m != nil {
					k.migrate(m, c.id, now)
					continue
				}
			}
			c.current = nil
			k.beginIdle(c, now)
			return
		}
		if t.state == StateRunning {
			panic(fmt.Sprintf("kernel: Pick(%d) returned %v already running on CPU %d", c.id, t, t.cpu))
		}
		k.endIdle(c, now)
		// Drive the program until it owes CPU; it may block or exit
		// instead, in which case we pick again. An op may wake a thread
		// whose preemption dispatches another CPU meanwhile, and t is not
		// yet c's current, so c.dispatching marks it unmovable: a peer's
		// work-pull must not migrate it and start it there too.
		c.dispatching = t
		ready := k.prepare(t, now)
		c.dispatching = nil
		if !ready {
			continue
		}
		if c.lastRan != nil && c.lastRan != t {
			k.stats.Switches++
			c.stats.Switches++
			k.overheadOn(c, SwitchCost)
		}
		c.lastRan = t
		k.startRun(c, t, now)
		return
	}
}

// pull is work-pull on behalf of the idle CPU: it scans the other CPUs
// in ring order, starting after the idle one (which keeps the victim
// choice fair and deterministic), and takes the first thread the policy
// yields through Steal, or nil when no work can move. This is the classic
// work-conserving baseline: no CPU idles while another has a queue of
// unpinned ready threads.
func (k *Kernel) pull(idle int, now sim.Time) *Thread {
	n := len(k.cpus)
	for i := 1; i < n; i++ {
		if t := k.policy.Steal((idle+i)%n, now); t != nil {
			return t
		}
	}
	return nil
}

// migrate reassigns a stolen thread (already out of every policy
// structure) to its new CPU and re-enqueues it there.
func (k *Kernel) migrate(t *Thread, to int, now sim.Time) {
	from := int(t.cpu)
	t.cpu = int32(to)
	t.migrations++
	k.stats.Migrations++
	k.cpus[to].stats.MigrationsIn++
	if k.tracer != nil {
		k.tracer.OnMigration(now, t, from, to)
	}
	k.policy.Enqueue(t, now)
}

// reschedule triggers a dispatch on every idle CPU. If a thread is
// running, enforcement waits for the next dispatch point (tick, syscall,
// or wakeup preemption), matching the prototype. Poking every idle CPU —
// not just the woken thread's — lets an idle peer work-pull a thread that
// was enqueued behind a busy CPU's current.
func (k *Kernel) reschedule(now sim.Time) {
	if k.busy != 0 || !k.started || k.stopped {
		return
	}
	for i := range k.cpus {
		c := &k.cpus[i]
		if c.current == nil && c.seg == nil {
			k.dispatch(c, now)
		}
	}
}

// opStatus is the outcome of executing one program operation.
type opStatus int

const (
	// opRun: the thread owes CPU; start a run segment.
	opRun opStatus = iota
	// opParked: the thread blocked, slept, yielded, or exited.
	opParked
	// opNext: the op completed with no CPU cost; consult the program again
	// (counts toward the zero-cost-op runaway guard).
	opNext
	// opNextFree: like opNext but exempt from the runaway guard (an
	// already-expired SleepUntil).
	opNextFree
)

// prepare drives t's program until it owes CPU (an in-progress compute),
// or blocks/sleeps/exits. It reports whether t is ready to run a segment.
func (k *Kernel) prepare(t *Thread, now sim.Time) bool {
	for {
		if t.op.kind == kindNone {
			t.op = t.program.Next(t, now)
			if t.op.kind == kindNone {
				panic(fmt.Sprintf("kernel: program of %v returned the zero Op; return Exit() to retire a thread", t))
			}
		}
		var st opStatus
		switch op := t.op; op.kind {
		case kindCompute:
			st = k.opCompute(t)
		case kindProduce:
			st = k.opProduce(t, op.q, op.n, now)
		case kindConsume:
			st = k.opConsume(t, op.q, op.n, now)
		case kindSleep:
			st = k.opSleep(t, sim.Duration(op.n), now)
		case kindSleepUntil:
			st = k.opSleepUntil(t, sim.Time(op.n), now)
		case kindLock:
			st = k.opLock(t, op.m, now)
		case kindUnlock:
			st = k.opUnlock(t, op.m, now)
		case kindYield:
			st = k.opYield(t, now)
		case kindBlock:
			st = k.opBlock(t, op.wq, now)
		case kindExit:
			k.exit(t, now)
			return false
		}
		switch st {
		case opRun:
			return true
		case opParked:
			return false
		case opNextFree:
			continue
		}
		t.zeroOps++
		if t.zeroOps > 100000 {
			panic(fmt.Sprintf("kernel: thread %v executed %d consecutive zero-cost ops", t, t.zeroOps))
		}
	}
}

// opCompute runs the thread while its op has cycles left to burn; the op
// itself counts them down (see chargeSegment).
func (k *Kernel) opCompute(t *Thread) opStatus {
	if t.op.n > 0 {
		t.zeroOps = 0
		return opRun
	}
	t.finishOp() // a burst of zero or fewer cycles completes immediately
	return opNext
}

func (k *Kernel) opProduce(t *Thread, q *Queue, n int64, now sim.Time) opStatus {
	if !q.tryProduce(t, n, now) {
		k.block(t, &q.notFull, now)
		return opParked
	}
	t.finishOp()
	return opNext
}

func (k *Kernel) opConsume(t *Thread, q *Queue, n int64, now sim.Time) opStatus {
	if !q.tryConsume(t, n, now) {
		k.block(t, &q.notEmpty, now)
		return opParked
	}
	t.finishOp()
	return opNext
}

func (k *Kernel) opSleep(t *Thread, d sim.Duration, now sim.Time) opStatus {
	deadline := now.Add(d)
	t.finishOp()
	k.sleepUntil(t, deadline, now)
	return opParked
}

func (k *Kernel) opSleepUntil(t *Thread, at, now sim.Time) opStatus {
	if at <= now {
		t.finishOp()
		return opNextFree
	}
	t.finishOp()
	k.sleepUntil(t, at, now)
	return opParked
}

func (k *Kernel) opLock(t *Thread, m *Mutex, now sim.Time) opStatus {
	if !m.tryLock(t) {
		k.block(t, &m.waiters, now)
		return opParked
	}
	t.finishOp()
	return opNext
}

func (k *Kernel) opUnlock(t *Thread, m *Mutex, now sim.Time) opStatus {
	k.unlock(t, m, now)
	t.finishOp()
	return opNext
}

func (k *Kernel) opYield(t *Thread, now sim.Time) opStatus {
	t.finishOp()
	t.state = StateReady
	// Rotate: move to the back of the policy's runnable set so Pick can
	// choose someone else.
	k.policy.Dequeue(t, now)
	k.policy.Enqueue(t, now)
	return opParked
}

func (k *Kernel) opBlock(t *Thread, wq *WaitQueue, now sim.Time) opStatus {
	// One-shot park: when woken the program resumes with its next op, so
	// the block is complete the moment it begins.
	t.finishOp()
	k.block(t, wq, now)
	return opParked
}

// finishOp clears the in-progress op so the program is consulted again.
func (t *Thread) finishOp() { t.op = Op{} }

// beginSegment resumes t on its CPU after a tick. If its burst is already
// complete it is driven through prepare first.
func (k *Kernel) beginSegment(c *cpu, t *Thread, now sim.Time) {
	if t.op.kind != kindCompute {
		if !k.prepare(t, now) {
			c.current = nil
			k.dispatch(c, now)
			return
		}
	}
	k.startRun(c, t, now)
}

// startRun begins a run segment for t on c, bounded by the remaining burst
// and the policy's time slice, delayed by the CPU's pending overhead.
func (k *Kernel) startRun(c *cpu, t *Thread, now sim.Time) {
	slice := k.policy.TimeSlice(t, now)
	if slice <= 0 {
		// The policy refuses to run the thread right now. Give it a
		// zero-length charge round so it can deschedule the thread.
		if k.policy.Charge(t, c.id, 0, now) || t.state == StateSleeping || t.state == StateBlocked {
			c.current = nil
			k.dispatch(c, now)
			return
		}
		// The policy did nothing; run one tick to avoid livelock.
		slice = k.cfg.TickInterval
	}
	runFor := k.cyclesDur(sim.Cycles(t.op.n))
	if slice < runFor {
		runFor = slice
	}
	start := now.Add(k.takeOverhead(c))
	end := start.Add(runFor)
	c.current = t
	t.state = StateRunning
	seg := &c.segStore
	seg.t = t
	seg.start = start
	seg.end = end
	seg.ev = k.eng.At(end, c.segEndFn)
	c.seg = seg
	if k.tracer != nil {
		k.tracer.OnDispatch(start, t)
	}
}

// takeOverhead consumes a CPU's accumulated pending overhead.
func (k *Kernel) takeOverhead(c *cpu) sim.Duration {
	d := c.pendingOverhead
	c.pendingOverhead = 0
	return d
}

// chargeSegment ends c's active segment at now (early or on time), charging
// the thread for the time it actually ran and letting the policy account it.
func (k *Kernel) chargeSegment(c *cpu, now sim.Time) {
	seg := c.seg
	if seg == nil {
		return
	}
	seg.ev.Cancel()
	c.seg = nil
	t := seg.t
	seg.t = nil
	seg.ev = nil
	ran := sim.Duration(0)
	if now > seg.start {
		end := now
		if end > seg.end {
			end = seg.end
		}
		ran = end.Sub(seg.start)
	}
	if ran > 0 {
		t.cpuTime += ran
		if t.op.kind == kindCompute {
			if burned := int64(sim.DurationToCycles(ran, ClockRate)); burned >= t.op.n {
				t.finishOp()
			} else {
				t.op.n -= burned
			}
		}
	}
	if k.tracer != nil {
		k.tracer.OnDeschedule(now, t, ran)
	}
	if k.policy.Charge(t, c.id, ran, now) && c.current == t {
		c.current = nil
		if t.state == StateRunning {
			t.state = StateReady
		}
	}
}

// segmentEnd fires when a run segment completes naturally on c: the burst
// finished or the policy's slice expired. Both are dispatch points.
func (k *Kernel) segmentEnd(c *cpu, now sim.Time) {
	if c.seg == nil || k.stopped {
		return
	}
	k.chargeSegment(c, now)
	if t := c.current; t != nil {
		c.current = nil
		if t.state == StateRunning {
			t.state = StateReady
		}
	}
	k.dispatch(c, now)
}

// block parks t on wq. Syscalls reach here only via prepare, so no segment
// is active.
func (k *Kernel) block(t *Thread, wq *WaitQueue, now sim.Time) {
	t.state = StateBlocked
	t.blockedCount++
	t.waitingOn = wq
	wq.push(t)
	if k.tracer != nil {
		k.tracer.OnBlock(now, t, wq)
	}
	k.policy.Dequeue(t, now)
	if c := &k.cpus[t.cpu]; c.current == t {
		c.current = nil
	}
}

// sleepUntil parks t until the first tick at or after deadline.
func (k *Kernel) sleepUntil(t *Thread, deadline, now sim.Time) {
	t.state = StateSleeping
	k.policy.Dequeue(t, now)
	k.sleepers.push(t, deadline)
	if c := &k.cpus[t.cpu]; c.current == t {
		c.current = nil
	}
}

// SleepThreadUntil forcibly deschedules a runnable thread until the given
// instant. Policies use it for budget exhaustion ("when a thread has used
// its allocation for its period, it is put to sleep until its next period
// begins", §3.1). Blocked and exited threads are left alone.
func (k *Kernel) SleepThreadUntil(t *Thread, deadline sim.Time) {
	if !t.Runnable() {
		return
	}
	k.sleepUntil(t, deadline, k.Now())
}

// wake makes a blocked or sleeping thread runnable and applies the policy's
// preemption rule.
func (k *Kernel) wake(t *Thread, now sim.Time) {
	if t.state == StateExited || t.Runnable() {
		return
	}
	if t.waitingOn != nil {
		t.waitingOn.remove(t)
		t.waitingOn = nil
	}
	if t.sleepPos != 0 {
		k.sleepers.remove(t)
	}
	t.state = StateReady
	k.stats.Wakeups++
	if k.tracer != nil {
		k.tracer.OnWake(now, t)
	}
	k.policy.Enqueue(t, now)
	k.maybePreempt(t, now)
	k.reschedule(now)
}

// Wake wakes a thread parked on a raw wait queue (Block) or sleeping.
// Waking a runnable thread is a no-op.
func (k *Kernel) Wake(t *Thread) { k.wake(t, k.Now()) }

// WakeOne wakes the first waiter on wq, reporting whether one was found.
func (k *Kernel) WakeOne(wq *WaitQueue) bool {
	t := wq.pop()
	if t == nil {
		return false
	}
	t.waitingOn = nil
	k.wake(t, k.Now())
	return true
}

// maybePreempt interrupts the running segment on the woken thread's CPU if
// the policy says it should preempt what is running there.
func (k *Kernel) maybePreempt(woken *Thread, now sim.Time) {
	c := &k.cpus[woken.cpu]
	cur := c.current
	if cur == nil || cur == woken || c.seg == nil {
		return
	}
	if !k.policy.WakePreempts(woken, cur, now) {
		return
	}
	k.chargeSegment(c, now)
	if c.current == cur {
		c.current = nil
		if cur.state == StateRunning {
			cur.state = StateReady
		}
	}
	k.dispatch(c, now)
}

// unlock releases m on behalf of t, handing ownership to the first waiter.
func (k *Kernel) unlock(t *Thread, m *Mutex, now sim.Time) {
	next := m.unlock(t)
	if next != nil {
		// Direct handoff: the waiter's pending Lock has succeeded.
		next.finishOp()
		k.wake(next, now)
	}
}

// Retire forcibly removes a thread from the machine, as if its program had
// returned Exit(): it is dequeued from the policy, unhooked from any wait
// queue or the sleep heap, and marked exited. Callers use it to undo a Spawn
// whose higher-level registration (e.g. admission control) failed, so the
// rejected thread does not keep running in the leftover CPU.
func (k *Kernel) Retire(t *Thread) {
	if t.state == StateExited {
		return
	}
	now := k.Now()
	if c := &k.cpus[t.cpu]; c.seg != nil && c.seg.t == t {
		k.chargeSegment(c, now)
	}
	if t.waitingOn != nil {
		t.waitingOn.remove(t)
		t.waitingOn = nil
	}
	if t.sleepPos != 0 {
		k.sleepers.remove(t)
	}
	k.stats.Retires++
	k.exit(t, now)
	k.reschedule(now)
}

// exit retires the thread.
func (k *Kernel) exit(t *Thread, now sim.Time) {
	t.state = StateExited
	k.stats.Exits++
	t.finishOp()
	k.policy.Dequeue(t, now)
	k.policy.RemoveThread(t, now)
	if c := &k.cpus[t.cpu]; c.current == t {
		c.current = nil
	}
	if k.onExit != nil {
		k.onExit(t, now)
	}
	if k.cfg.Recycle {
		k.recycleThread(t)
	}
}

// threadSlabSize is how many Thread objects one slab chunk holds.
const threadSlabSize = 256

// threadSlab is one slab chunk: its Thread objects and the sleep-heap
// storage their sleeps can need, in one allocation. At 208 bytes a thread
// the pair fills seven 8 KiB pages exactly, the size the threads alone
// rounded up to, so sleeping costs the spawn path no extra memory.
type threadSlab struct {
	threads [threadSlabSize]Thread
	sleep   [threadSlabSize]sleeper
}

// SlotStep is the step in which slot-indexed tables grow once they hold
// a full slab: one kernel slab chunk of Thread objects, and one
// controller slab chunk of jobs.
const SlotStep = threadSlabSize

// GrowSlots returns tbl extended with zero values until slot is a valid
// index. A table doubles from 8 entries up to one SlotStep, so a machine
// with a handful of threads pays for a handful of entries, and grows in
// SlotStep-sized steps after that. Slots are dense, so a table stays
// within one step of the peak object count.
func GrowSlots[T any](tbl []T, slot int) []T {
	for len(tbl) <= slot {
		tbl = append(tbl, make([]T, min(max(len(tbl), 8), SlotStep))...)
	}
	return tbl
}

// allocThread returns a zeroed Thread object: from the free pool when
// recycling has banked one, otherwise carved from the current slab chunk.
// The caller fills the identity fields; gen and slot carry over from the
// object's previous life, so stale-reference detection survives reissue
// and slot-indexed tables never see two live threads in one slot.
func (k *Kernel) allocThread() *Thread {
	if t := k.freeThread; t != nil {
		k.freeThread = t.freeNext
		t.freeNext = nil
		return t
	}
	if len(k.thrSlab) == 0 {
		slab := new(threadSlab)
		k.thrSlab = slab.threads[:]
		k.sleepers.chunks = append(k.sleepers.chunks, &slab.sleep)
	}
	t := &k.thrSlab[0]
	k.thrSlab = k.thrSlab[1:]
	t.slot = k.carved
	k.carved++
	return t
}

// recycleThread scrubs an exited thread and returns its object to the
// pool. It runs only after the exit hook, when every layer above has
// dropped (or snapshotted) its references. A thread that exits while
// holding a mutex is left un-pooled — Mutex.owner keeps naming it — which
// is exactly the reachable-forever behavior the non-recycling kernel has.
func (k *Kernel) recycleThread(t *Thread) {
	if t.ownedMutexes != 0 {
		return
	}
	// Defensive detach: the exit paths already drop these, but a stale
	// sleep-heap entry or wait-queue link reaching into the pool would
	// wake a stranger.
	if t.waitingOn != nil {
		t.waitingOn.remove(t)
		t.waitingOn = nil
	}
	if t.sleepPos != 0 {
		k.sleepers.remove(t)
	}
	// The switch-cost test compares lastRan by identity; a reissued object
	// must read as "someone else ran last", exactly like the stale,
	// never-reissued pointer it replaces — hence the sentinel, which no
	// dispatch ever picks.
	for i := range k.cpus {
		if k.cpus[i].lastRan == t {
			k.cpus[i].lastRan = &k.exitStub
		}
	}
	// Swap-remove from the live list.
	last := len(k.threads) - 1
	if moved := k.threads[last]; moved != t {
		k.threads[t.listIdx] = moved
		moved.listIdx = t.listIdx
	}
	k.threads[last] = nil
	k.threads = k.threads[:last]
	// Scrub every field. The generation bump is what turns a retained
	// stale reference into a deterministic panic at the public layer
	// instead of silent corruption; state stays Exited so raw pointer
	// holders that poll State() keep reading a retired thread until the
	// slot is reissued.
	gen, slot := t.gen+1, t.slot
	*t = Thread{gen: gen, slot: slot, state: StateExited}
	t.freeNext = k.freeThread
	k.freeThread = t
}

func (k *Kernel) beginIdle(c *cpu, now sim.Time) {
	// Kernel work accrued on the way into idle overlaps the idle span;
	// uncount it so capacity ≈ ThreadTime + Idle + Overhead stays tight.
	k.stats.Overhead -= c.pendingOverhead
	c.pendingOverhead = 0
	if c.idling {
		return
	}
	c.idling = true
	c.idleSince = now
}

func (k *Kernel) endIdle(c *cpu, now sim.Time) {
	if c.idling {
		c.idling = false
		span := now.Sub(c.idleSince)
		k.stats.Idle += span
		c.stats.Idle += span
	}
}
