package kernel_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// hog returns a program that computes forever in bursts of the given size.
// The op struct is reused across iterations, so emitting it never allocates.
func hog(burst sim.Cycles) kernel.Program {
	op := kernel.OpCompute{Cycles: burst}
	return kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		return &op
	})
}

// newRRMachine builds a kernel on a fresh engine with a round-robin policy.
func newRRMachine(quantum sim.Duration) (*sim.Engine, *kernel.Kernel) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig(), baseline.NewRoundRobin(quantum))
	return eng, k
}

func TestSingleHogConsumesNearlyAllCPU(t *testing.T) {
	eng, k := newRRMachine(10 * sim.Millisecond)
	h := k.Spawn("hog", hog(1_000_000))
	k.Start()
	eng.RunFor(sim.Second)
	k.Stop()

	frac := h.CPUTime().Seconds()
	if frac < 0.95 {
		t.Fatalf("hog got %.3f of the CPU, want >0.95", frac)
	}
	st := k.Stats()
	if st.Idle > 10*sim.Millisecond {
		t.Fatalf("idle = %v with a hog running", st.Idle)
	}
}

func TestConservationOfTime(t *testing.T) {
	eng, k := newRRMachine(5 * sim.Millisecond)
	k.Spawn("a", hog(500_000))
	k.Spawn("b", hog(300_000))
	k.Start()
	eng.RunFor(2 * sim.Second)
	k.Stop()

	st := k.Stats()
	var threadTime sim.Duration
	for _, th := range k.Threads() {
		threadTime += th.CPUTime()
	}
	total := threadTime + st.Idle + st.Overhead
	diff := total - st.Elapsed
	if diff < 0 {
		diff = -diff
	}
	// Allow 1ms of slack per simulated second for tick/segment rounding.
	if diff > 2*sim.Millisecond {
		t.Fatalf("conservation broken: threads %v + idle %v + overhead %v = %v, elapsed %v",
			threadTime, st.Idle, st.Overhead, total, st.Elapsed)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	eng, k := newRRMachine(5 * sim.Millisecond)
	a := k.Spawn("a", hog(100_000))
	b := k.Spawn("b", hog(100_000))
	k.Start()
	eng.RunFor(2 * sim.Second)
	k.Stop()

	fa := a.CPUTime().Seconds()
	fb := b.CPUTime().Seconds()
	if fa < 0.85 || fb < 0.85 {
		t.Fatalf("unfair split: a=%.3f b=%.3f of 1.0 each (2s total)", fa, fb)
	}
}

func TestIdleMachineAccumulatesIdleTime(t *testing.T) {
	eng, k := newRRMachine(0)
	k.Start()
	eng.RunFor(sim.Second)
	k.Stop()
	st := k.Stats()
	if st.Idle < 990*sim.Millisecond {
		t.Fatalf("idle = %v on an empty machine, want ≈1s", st.Idle)
	}
}

func TestSleepWakesAtTickGranularity(t *testing.T) {
	eng, k := newRRMachine(0)
	var wokenAt sim.Time
	done := false
	prog := kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		switch {
		case now == 0:
			return kernel.OpSleep{D: 2500 * sim.Microsecond}
		case !done:
			done = true
			wokenAt = now
			return kernel.OpExit{}
		}
		return kernel.OpExit{}
	})
	k.Spawn("sleeper", prog)
	k.Start()
	eng.RunFor(100 * sim.Millisecond)
	k.Stop()
	if !done {
		t.Fatal("sleeper never woke")
	}
	// Deadline 2.5ms; do_timers runs at ticks, so wake at the 3ms tick.
	if wokenAt < sim.Time(3*sim.Millisecond) || wokenAt > sim.Time(4*sim.Millisecond) {
		t.Fatalf("woke at %v, want the first tick at/after 2.5ms", wokenAt)
	}
}

func TestThreadExitRemovesFromMachine(t *testing.T) {
	eng, k := newRRMachine(0)
	steps := 0
	prog := kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		steps++
		if steps > 3 {
			return kernel.OpExit{}
		}
		return kernel.OpCompute{Cycles: 1000}
	})
	th := k.Spawn("worker", prog)
	k.Start()
	eng.RunFor(100 * sim.Millisecond)
	k.Stop()
	if th.State() != kernel.StateExited {
		t.Fatalf("state = %v, want exited", th.State())
	}
	st := k.Stats()
	if st.Idle < 90*sim.Millisecond {
		t.Fatalf("machine did not go idle after exit: idle=%v", st.Idle)
	}
}

func TestSpawnDuringSimulation(t *testing.T) {
	eng, k := newRRMachine(5 * sim.Millisecond)
	k.Start()
	eng.RunFor(500 * sim.Millisecond)
	late := k.Spawn("late", hog(100_000))
	eng.RunFor(500 * sim.Millisecond)
	k.Stop()
	if late.CPUTime() < 450*sim.Millisecond {
		t.Fatalf("late-spawned hog got %v, want ≈500ms", late.CPUTime())
	}
}

// pcProgram alternates compute and a queue op, reusing its op structs.
type pcProgram struct {
	q       *kernel.Queue
	cycles  sim.Cycles
	bytes   int64
	produce bool
	compute bool // next op is compute

	computeOp kernel.OpCompute
	produceOp kernel.OpProduce
	consumeOp kernel.OpConsume
}

func (p *pcProgram) Next(t *kernel.Thread, now sim.Time) kernel.Op {
	p.compute = !p.compute
	if p.compute {
		p.computeOp = kernel.OpCompute{Cycles: p.cycles}
		return &p.computeOp
	}
	if p.produce {
		p.produceOp = kernel.OpProduce{Queue: p.q, Bytes: p.bytes}
		return &p.produceOp
	}
	p.consumeOp = kernel.OpConsume{Queue: p.q, Bytes: p.bytes}
	return &p.consumeOp
}

func TestProducerConsumerPipeline(t *testing.T) {
	eng, k := newRRMachine(sim.Millisecond)
	q := k.NewQueue("pipe", 8192)
	// Producer is fast, consumer slower: queue should fill and the
	// producer should block rather than overrun.
	k.Spawn("prod", &pcProgram{q: q, cycles: 10_000, bytes: 512, produce: true})
	k.Spawn("cons", &pcProgram{q: q, cycles: 40_000, bytes: 512})
	k.Start()
	eng.RunFor(2 * sim.Second)
	k.Stop()

	if err := q.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if q.Consumed() == 0 {
		t.Fatal("no bytes flowed through the pipe")
	}
	// The consumer needs 4x the producer's cycles per byte, so with equal
	// scheduling the queue must have hit its ceiling and throttled the
	// producer: fill stays within bounds by conservation check, and
	// produced-consumed difference is at most the queue size.
	if q.Produced()-q.Consumed() > q.Size() {
		t.Fatalf("producer overran: produced %d consumed %d", q.Produced(), q.Consumed())
	}
}

// TestBlockOnQueueHalfAllocatesNothing pins that a block event costs a
// tracer nothing it does not ask for: the wait queue's label (the queue
// name plus its half's suffix) is built only by a tracer that reads it,
// so with one that ignores OnBlock a block/wake cycle on a queue half
// allocates nothing.
func TestBlockOnQueueHalfAllocatesNothing(t *testing.T) {
	eng, k := newRRMachine(sim.Millisecond)
	k.SetTracer(traceFunc(func(sim.Time, *kernel.Thread) {}))
	q := k.NewQueue("pipe", 1024)
	// A slow producer keeps the consumer blocking on the notEmpty half.
	k.Spawn("prod", &pcProgram{q: q, cycles: 40_000, bytes: 128, produce: true})
	cons := k.Spawn("cons", &pcProgram{q: q, cycles: 1000, bytes: 128})
	k.Start()
	// Warm up until every timer-wheel slot has grown to its working size.
	eng.RunFor(sim.Second)
	blocked := cons.BlockedCount()
	allocs := testing.AllocsPerRun(10, func() { eng.RunFor(10 * sim.Millisecond) })
	k.Stop()
	if cons.BlockedCount() == blocked {
		t.Fatal("the consumer never blocked during the measured runs")
	}
	if allocs != 0 {
		t.Fatalf("block/wake cycles allocated %v times per run, want 0", allocs)
	}
}

func TestConsumerBlocksOnEmptyQueue(t *testing.T) {
	eng, k := newRRMachine(sim.Millisecond)
	q := k.NewQueue("pipe", 1024)
	cons := k.Spawn("cons", &pcProgram{q: q, cycles: 1000, bytes: 128})
	k.Start()
	eng.RunFor(100 * sim.Millisecond)
	if cons.State() != kernel.StateBlocked {
		t.Fatalf("consumer state = %v, want blocked on empty queue", cons.State())
	}
	// Now feed it.
	k.Spawn("prod", &pcProgram{q: q, cycles: 1000, bytes: 128, produce: true})
	eng.RunFor(100 * sim.Millisecond)
	k.Stop()
	if q.Consumed() == 0 {
		t.Fatal("consumer never unblocked")
	}
}

func TestQueueWakesBlockedPeer(t *testing.T) {
	eng, k := newRRMachine(sim.Millisecond)
	q := k.NewQueue("pipe", 256)
	// Producer fills the tiny queue and blocks; consumer drains it.
	k.Spawn("prod", &pcProgram{q: q, cycles: 100, bytes: 256, produce: true})
	k.Spawn("cons", &pcProgram{q: q, cycles: 100, bytes: 256})
	k.Start()
	eng.RunFor(sim.Second)
	k.Stop()
	if err := q.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if q.Consumed() < 10*256 {
		t.Fatalf("only %d bytes flowed; blocking handshake is broken", q.Consumed())
	}
}

// lockProgram locks, computes, unlocks, sleeps.
type lockProgram struct {
	m     *kernel.Mutex
	hold  sim.Cycles
	gap   sim.Duration
	phase int
	loops int
}

func (p *lockProgram) Next(t *kernel.Thread, now sim.Time) kernel.Op {
	p.phase++
	switch p.phase % 4 {
	case 1:
		return kernel.OpLock{M: p.m}
	case 2:
		return kernel.OpCompute{Cycles: p.hold}
	case 3:
		return kernel.OpUnlock{M: p.m}
	default:
		p.loops++
		return kernel.OpSleep{D: p.gap}
	}
}

func TestMutexMutualExclusionAndHandoff(t *testing.T) {
	eng, k := newRRMachine(sim.Millisecond)
	m := kernel.NewMutex("m")
	a := &lockProgram{m: m, hold: 400_000, gap: sim.Millisecond}
	b := &lockProgram{m: m, hold: 400_000, gap: sim.Millisecond}
	k.Spawn("a", a)
	k.Spawn("b", b)
	k.Start()
	eng.RunFor(sim.Second)
	k.Stop()
	if m.Owner() != nil && m.Waiters() == 0 && m.Acquisitions() == 0 {
		t.Fatal("mutex never exercised")
	}
	if a.loops == 0 || b.loops == 0 {
		t.Fatalf("starvation through mutex: a=%d b=%d loops", a.loops, b.loops)
	}
	if m.Contended() == 0 {
		t.Fatal("expected contention with 1ms critical sections")
	}
}

func TestRecursiveLockPanics(t *testing.T) {
	eng, k := newRRMachine(sim.Millisecond)
	m := kernel.NewMutex("m")
	phase := 0
	k.Spawn("rec", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		phase++
		return kernel.OpLock{M: m}
	}))
	defer func() {
		if recover() == nil {
			t.Fatal("recursive lock did not panic")
		}
	}()
	k.Start()
	eng.RunFor(10 * sim.Millisecond)
}

func TestYieldRotatesFairly(t *testing.T) {
	eng, k := newRRMachine(100 * sim.Millisecond) // long quantum: rotation must come from yields
	counts := [2]int{}
	mk := func(i int) kernel.Program {
		phase := 0
		return kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
			phase++
			if phase%2 == 1 {
				return kernel.OpCompute{Cycles: 40_000} // 0.1ms
			}
			counts[i]++
			return kernel.OpYield{}
		})
	}
	k.Spawn("y0", mk(0))
	k.Spawn("y1", mk(1))
	k.Start()
	eng.RunFor(sim.Second)
	k.Stop()
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("yield starved a thread: %v", counts)
	}
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("yield rotation unfair: %v", counts)
	}
}

func TestOpBlockAndWake(t *testing.T) {
	eng, k := newRRMachine(sim.Millisecond)
	wq := kernel.NewWaitQueue("tty")
	served := 0
	k.Spawn("interactive", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		served++
		if served%2 == 1 {
			return kernel.OpBlock{WQ: wq}
		}
		return kernel.OpCompute{Cycles: 10_000}
	}))
	// Waker: wakes the interactive thread every 10ms.
	k.Spawn("waker", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		k.WakeOne(wq)
		return kernel.OpSleep{D: 10 * sim.Millisecond}
	}))
	k.Start()
	eng.RunFor(sim.Second)
	k.Stop()
	if served < 50 {
		t.Fatalf("interactive thread served %d times, want ≈100", served)
	}
}

func TestStatsCountersPlausible(t *testing.T) {
	eng, k := newRRMachine(5 * sim.Millisecond)
	k.Spawn("hog", hog(1_000_000))
	k.Start()
	eng.RunFor(sim.Second)
	k.Stop()
	st := k.Stats()
	// 1ms ticks for 1s ≈ 1000 ticks.
	if st.Ticks < 990 || st.Ticks > 1010 {
		t.Fatalf("ticks = %d, want ≈1000", st.Ticks)
	}
	if st.Dispatches == 0 {
		t.Fatal("no dispatches recorded")
	}
	if st.Overhead <= 0 {
		t.Fatal("no overhead recorded")
	}
	if st.Elapsed != sim.Duration(sim.Second) {
		t.Fatalf("elapsed = %v", st.Elapsed)
	}
}

func TestOverheadGrowsWithTickRate(t *testing.T) {
	measure := func(tick sim.Duration) float64 {
		eng := sim.NewEngine()
		cfg := kernel.DefaultConfig()
		cfg.TickInterval = tick
		k := kernel.New(eng, cfg, baseline.NewRoundRobin(tick))
		h := k.Spawn("hog", hog(1_000_000))
		k.Start()
		eng.RunFor(sim.Second)
		k.Stop()
		return h.CPUTime().Seconds()
	}
	coarse := measure(10 * sim.Millisecond)
	fine := measure(250 * sim.Microsecond)
	if fine >= coarse {
		t.Fatalf("finer ticks should cost CPU: coarse=%v fine=%v", coarse, fine)
	}
	// At 4kHz with ~2.7k cycles/dispatch on 400MHz, overhead ≈ 2.7%.
	loss := coarse - fine
	if loss < 0.01 || loss > 0.06 {
		t.Fatalf("4kHz overhead = %.4f, want around 0.027", loss)
	}
}

func TestLinuxPolicyNiceShares(t *testing.T) {
	eng := sim.NewEngine()
	lp := baseline.NewLinux()
	k := kernel.New(eng, kernel.DefaultConfig(), lp)
	fast := k.Spawn("fast", hog(100_000))
	slow := k.Spawn("slow", hog(100_000))
	lp.SetNice(slow, 15) // heavily niced
	k.Start()
	eng.RunFor(4 * sim.Second)
	k.Stop()
	if fast.CPUTime() <= slow.CPUTime() {
		t.Fatalf("nice had no effect: fast=%v slow=%v", fast.CPUTime(), slow.CPUTime())
	}
	ratio := fast.CPUTime().Seconds() / slow.CPUTime().Seconds()
	if ratio < 2 {
		t.Fatalf("nice 15 ratio = %.2f, want >2", ratio)
	}
}

func TestLinuxRealtimeStarvesTimeSharing(t *testing.T) {
	// The failure mode §2 describes: a fixed real-time thread that never
	// blocks starves every time-sharing thread.
	eng := sim.NewEngine()
	lp := baseline.NewLinux()
	k := kernel.New(eng, kernel.DefaultConfig(), lp)
	rt := k.Spawn("rt-spinner", hog(100_000))
	victim := k.Spawn("victim", hog(100_000))
	lp.SetRealtime(rt, 50)
	k.Start()
	eng.RunFor(2 * sim.Second)
	k.Stop()
	if victim.CPUTime() > 10*sim.Millisecond {
		t.Fatalf("victim got %v; fixed RT priority should starve it", victim.CPUTime())
	}
	if rt.CPUTime() < 1900*sim.Millisecond {
		t.Fatalf("rt thread got %v, want ≈2s", rt.CPUTime())
	}
}

func TestLinuxInteractiveGetsCPUPromptly(t *testing.T) {
	// An interactive thread that mostly sleeps must preempt a hog when it
	// wakes (goodness preserved by counter carry-over).
	eng := sim.NewEngine()
	lp := baseline.NewLinux()
	k := kernel.New(eng, kernel.DefaultConfig(), lp)
	k.Spawn("hog", hog(1_000_000))
	var latencies []sim.Duration
	var wantAt sim.Time
	phase := 0
	k.Spawn("inter", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		phase++
		if phase%2 == 1 {
			wantAt = now.Add(20 * sim.Millisecond)
			return kernel.OpSleep{D: 20 * sim.Millisecond}
		}
		latencies = append(latencies, now.Sub(wantAt))
		return kernel.OpCompute{Cycles: 400_000} // 1ms burst
	}))
	k.Start()
	eng.RunFor(2 * sim.Second)
	k.Stop()
	if len(latencies) < 10 {
		t.Fatalf("interactive thread barely ran: %d wakeups", len(latencies))
	}
	var worst sim.Duration
	for _, l := range latencies[1:] {
		if l > worst {
			worst = l
		}
	}
	// Wake happens at tick granularity (≤1ms late) and the woken thread
	// preempts the hog, so scheduling latency stays within a few ticks.
	if worst > 5*sim.Millisecond {
		t.Fatalf("worst interactive latency = %v, want ≤5ms", worst)
	}
}

func TestStopHaltsDispatching(t *testing.T) {
	eng, k := newRRMachine(sim.Millisecond)
	h := k.Spawn("hog", hog(1_000_000))
	k.Start()
	eng.RunFor(100 * sim.Millisecond)
	k.Stop()
	before := h.CPUTime()
	eng.RunFor(100 * sim.Millisecond)
	if h.CPUTime() != before {
		t.Fatal("thread kept running after Stop")
	}
}

// TestTimerFireOrderFIFOAtSameTick pins the timer min-heap to the legacy
// sorted list's order: timers with equal expiry fire in registration
// order, and earlier expiries always fire first even when many timers are
// pending (the heap replaced an O(n) insertion sort).
func TestTimerFireOrderFIFOAtSameTick(t *testing.T) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig(), baseline.NewRoundRobin(sim.Millisecond))
	var order []int
	deadline := sim.Time(5 * sim.Millisecond)
	// Register out of expiry order, with a batch sharing one deadline.
	for i, when := range []sim.Time{deadline, deadline, sim.Time(3 * sim.Millisecond), deadline, sim.Time(2 * sim.Millisecond)} {
		id := i
		k.AddTimer(when, func(now sim.Time) { order = append(order, id) })
	}
	k.Start()
	eng.RunFor(10 * sim.Millisecond)
	k.Stop()
	want := []int{4, 2, 0, 1, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %d timers, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fire order = %v, want %v", order, want)
		}
	}
}
