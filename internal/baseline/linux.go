package baseline

import (
	"repro/internal/kernel"
	"repro/internal/sim"
)

// Scheduling classes of the Linux 2.0 scheduler.
const (
	// SchedOther is the default time-sharing class with counter decay.
	SchedOther = iota
	// SchedFIFO is the fixed real-time class: runs to completion or block,
	// strictly above every SchedOther thread. This is the class whose
	// deployment the paper calls out ("the recent deployment of fixed
	// real-time priorities in systems such as Linux and Windows NT").
	SchedFIFO
)

// linuxState is the per-thread state of the Linux policy.
type linuxState struct {
	class int
	// priority is the time-sharing priority in ticks (Linux 2.0's
	// p->priority): both the counter refill amount and the goodness boost.
	priority int64
	// counter is the remaining quantum in ticks (p->counter).
	counter int64
	// rtprio orders SchedFIFO threads among themselves.
	rtprio int
	// consumed accumulates partial-tick run time until a full tick can be
	// charged against counter.
	consumed sim.Duration
	runnable bool
}

// Linux emulates the Linux 2.0.35 scheduler the paper modified: one run
// queue, goodness-based selection, counter decay with epoch recalculation
// (the classic multilevel feedback behavior), nice values, and fixed
// real-time priorities layered above the time-sharing class.
type Linux struct {
	k *kernel.Kernel
	// DefaultPriority is the counter refill in ticks for new threads.
	// Linux 2.0's DEF_PRIORITY was 20 ticks of 10 ms (200 ms); with the
	// prototype's 1 ms tick that is 200 ticks.
	DefaultPriority int64
	// runnable holds one run queue per CPU; counters and priorities stay
	// global (the epoch recalculation sweeps every thread, as Linux did).
	runnable    [][]*kernel.Thread
	threads     []*kernel.Thread
	needResched []bool
}

// NewLinux returns a Linux-style goodness policy.
func NewLinux() *Linux {
	return &Linux{DefaultPriority: 200}
}

// Name implements kernel.Policy.
func (p *Linux) Name() string { return "linux-goodness" }

// Attach implements kernel.Policy.
func (p *Linux) Attach(k *kernel.Kernel) {
	p.k = k
	p.runnable = make([][]*kernel.Thread, k.NumCPUs())
	p.needResched = make([]bool, k.NumCPUs())
}

func state(t *kernel.Thread) *linuxState { return t.Sched.(*linuxState) }

// AddThread implements kernel.Policy.
func (p *Linux) AddThread(t *kernel.Thread, now sim.Time) {
	st := &linuxState{class: SchedOther, priority: p.DefaultPriority}
	st.counter = st.priority
	t.Sched = st
	p.threads = append(p.threads, t)
}

// RemoveThread implements kernel.Policy.
func (p *Linux) RemoveThread(t *kernel.Thread, now sim.Time) {
	for i, r := range p.threads {
		if r == t {
			copy(p.threads[i:], p.threads[i+1:])
			p.threads[len(p.threads)-1] = nil // keep the exited thread unreachable
			p.threads = p.threads[:len(p.threads)-1]
			return
		}
	}
}

// SetNice adjusts a time-sharing thread's priority the way nice does:
// positive nice lowers priority. The mapping compresses nice −20..19 onto
// a priority multiplier, mirroring Linux 2.0's priority = DEF_PRIORITY +
// 10·nice/… behavior loosely but monotonically.
func (p *Linux) SetNice(t *kernel.Thread, nice int) {
	if nice < -20 {
		nice = -20
	}
	if nice > 19 {
		nice = 19
	}
	st := state(t)
	st.priority = p.DefaultPriority - int64(nice)*p.DefaultPriority/20
	if st.priority < 1 {
		st.priority = 1
	}
	if st.counter > st.priority {
		st.counter = st.priority
	}
}

// SetRealtime moves a thread into the fixed-priority SchedFIFO class.
func (p *Linux) SetRealtime(t *kernel.Thread, rtprio int) {
	st := state(t)
	st.class = SchedFIFO
	st.rtprio = rtprio
}

// goodness mirrors Linux 2.0: real-time threads get 1000+rtprio, putting
// them above every time-sharing thread; time-sharing threads score
// counter (+priority when they still have quantum left); zero when spent.
func (p *Linux) goodness(t *kernel.Thread) int64 {
	st := state(t)
	if st.class == SchedFIFO {
		return 1_000_000 + int64(st.rtprio)
	}
	if st.counter <= 0 {
		return 0
	}
	return st.counter + st.priority
}

// Enqueue implements kernel.Policy.
func (p *Linux) Enqueue(t *kernel.Thread, now sim.Time) {
	st := state(t)
	if st.runnable {
		return
	}
	st.runnable = true
	p.runnable[t.CPU()] = append(p.runnable[t.CPU()], t)
	if cur := p.k.CurrentOn(t.CPU()); cur != nil && p.goodness(t) > p.goodness(cur) {
		p.needResched[t.CPU()] = true
	}
}

// Dequeue implements kernel.Policy.
func (p *Linux) Dequeue(t *kernel.Thread, now sim.Time) {
	st := state(t)
	if !st.runnable {
		return
	}
	st.runnable = false
	q := p.runnable[t.CPU()]
	for i, r := range q {
		if r == t {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil // clear the vacated tail slot
			p.runnable[t.CPU()] = q[:len(q)-1]
			return
		}
	}
}

// Pick implements kernel.Policy: highest goodness on the CPU's queue wins;
// when every runnable time-sharing thread there has exhausted its counter,
// recalculate all counters (the epoch boundary of the multilevel feedback
// scheduler): counter = counter/2 + priority.
func (p *Linux) Pick(cpu int, now sim.Time) *kernel.Thread {
	if len(p.runnable[cpu]) == 0 {
		return nil
	}
	best := p.selectBest(cpu)
	if best != nil {
		return best
	}
	// Epoch: every runnable thread spent. Blocked threads keep half their
	// counter, rewarding interactive behavior exactly as Linux did.
	for _, t := range p.threads {
		st := state(t)
		st.counter = st.counter/2 + st.priority
	}
	return p.selectBest(cpu)
}

// Steal implements kernel.Policy: hand over the highest-goodness
// migratable thread on the victim's queue (first-best in queue order, like
// the dispatch scan).
func (p *Linux) Steal(from int, now sim.Time) *kernel.Thread {
	cur := p.k.CurrentOn(from)
	var best *kernel.Thread
	var bestG int64
	for _, t := range p.runnable[from] {
		if !kernel.Movable(t, cur) {
			continue
		}
		if g := p.goodness(t); best == nil || g > bestG {
			best, bestG = t, g
		}
	}
	if best != nil {
		p.Dequeue(best, now)
	}
	return best
}

func (p *Linux) selectBest(cpu int) *kernel.Thread {
	var best *kernel.Thread
	var bestG int64
	for _, t := range p.runnable[cpu] {
		if g := p.goodness(t); g > bestG {
			best, bestG = t, g
		}
	}
	return best
}

// TimeSlice implements kernel.Policy: real-time threads run until they
// block; time-sharing threads run out their counter.
func (p *Linux) TimeSlice(t *kernel.Thread, now sim.Time) sim.Duration {
	st := state(t)
	if st.class == SchedFIFO {
		return sim.Duration(1 << 62)
	}
	if st.counter <= 0 {
		// Spent; Pick recalculates at the next epoch. One tick keeps the
		// machine moving if we are forced to run anyway.
		return p.k.Tick()
	}
	return sim.Duration(st.counter)*p.k.Tick() - st.consumed
}

// Charge implements kernel.Policy: burn whole ticks off the counter.
func (p *Linux) Charge(t *kernel.Thread, cpu int, ran sim.Duration, now sim.Time) bool {
	st := state(t)
	if st.class == SchedFIFO {
		return false
	}
	st.consumed += ran
	tick := p.k.Tick()
	for st.consumed >= tick {
		st.consumed -= tick
		if st.counter > 0 {
			st.counter--
		}
	}
	return st.counter <= 0
}

// Tick implements kernel.Policy.
func (p *Linux) Tick(cpu int, now sim.Time) bool {
	r := p.needResched[cpu]
	p.needResched[cpu] = false
	return r
}

// WakePreempts implements kernel.Policy: strictly higher goodness preempts,
// which is how the prototype's do_timers behaves.
func (p *Linux) WakePreempts(woken, current *kernel.Thread, now sim.Time) bool {
	return p.goodness(woken) > p.goodness(current)
}

// Runnable returns the total run-queue length over all CPUs, for tests.
func (p *Linux) Runnable() int {
	n := 0
	for _, q := range p.runnable {
		n += len(q)
	}
	return n
}
