package kernel_test

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// idlePolicy never runs anything: threads stay ready until a test puts
// them to sleep, so the kernel's sleep heap is the only moving part.
type idlePolicy struct{}

func (idlePolicy) Name() string                                                  { return "idle" }
func (idlePolicy) Attach(*kernel.Kernel)                                         {}
func (idlePolicy) AddThread(*kernel.Thread, sim.Time)                            {}
func (idlePolicy) RemoveThread(*kernel.Thread, sim.Time)                         {}
func (idlePolicy) Enqueue(*kernel.Thread, sim.Time)                              {}
func (idlePolicy) Dequeue(*kernel.Thread, sim.Time)                              {}
func (idlePolicy) Pick(int, sim.Time) *kernel.Thread                             { return nil }
func (idlePolicy) Steal(int, sim.Time) *kernel.Thread                            { return nil }
func (idlePolicy) TimeSlice(*kernel.Thread, sim.Time) sim.Duration               { return sim.Millisecond }
func (idlePolicy) Charge(*kernel.Thread, int, sim.Duration, sim.Time) bool       { return false }
func (idlePolicy) Tick(int, sim.Time) bool                                       { return false }
func (idlePolicy) WakePreempts(woken, current *kernel.Thread, now sim.Time) bool { return false }

// wake is one observed (or expected) wakeup: when, and which thread.
type wake struct {
	at sim.Time
	id int
}

// wakeLog records every OnWake in order.
type wakeLog struct{ wakes []wake }

func (l *wakeLog) OnDispatch(sim.Time, *kernel.Thread)                 {}
func (l *wakeLog) OnDeschedule(sim.Time, *kernel.Thread, sim.Duration) {}
func (l *wakeLog) OnWake(now sim.Time, t *kernel.Thread) {
	l.wakes = append(l.wakes, wake{now, t.ID()})
}
func (l *wakeLog) OnBlock(sim.Time, *kernel.Thread, *kernel.WaitQueue)      {}
func (l *wakeLog) OnMigration(now sim.Time, t *kernel.Thread, from, to int) {}

// TestTimerFireOrderFIFOAtSameTick pins the sleep heap to the paper's
// sorted timer list: sleepers with equal deadlines wake in the order they
// went to sleep, and earlier deadlines always wake first.
func TestTimerFireOrderFIFOAtSameTick(t *testing.T) {
	eng, k := newRRMachine(sim.Millisecond)
	log := &wakeLog{}
	k.SetTracer(log)
	deadline := sim.Time(5 * sim.Millisecond)
	// Sleep out of deadline order, with a batch sharing one deadline; the
	// round-robin dispatcher runs the threads, and so registers their
	// sleeps, in spawn order.
	for _, when := range []sim.Time{deadline, deadline, sim.Time(3 * sim.Millisecond), deadline, sim.Time(2 * sim.Millisecond)} {
		sleep := kernel.SleepUntil(when)
		slept := false
		k.Spawn("sleeper", kernel.ProgramFunc(func(*kernel.Thread, sim.Time) kernel.Op {
			if slept {
				return kernel.Exit()
			}
			slept = true
			return sleep
		}))
	}
	k.Start()
	eng.RunFor(10 * sim.Millisecond)
	k.Stop()
	var order []int
	for _, w := range log.wakes {
		order = append(order, w.id)
	}
	if want := []int{4, 2, 0, 1, 3}; !slices.Equal(order, want) {
		t.Fatalf("wake order = %v, want %v", order, want)
	}
}

// checkWakes fails t at the first difference between two wake logs.
func checkWakes(t *testing.T, where string, got, want []wake) {
	t.Helper()
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			t.Fatalf("%s: %d wakes, want %d; first difference at wake %d: got %v, want %v",
				where, len(got), len(want), i, got[i:min(i+1, len(got))], want[i:min(i+1, len(want))])
		}
	}
}

// sleepRef is the naive reference for the sleep heap: the pending
// sleepers in registration order, expired by a full scan for the least
// (deadline, registration) pair.
type sleepRef struct {
	pending []refSleeper
}

type refSleeper struct {
	at sim.Time
	id int
}

func (r *sleepRef) add(id int, at sim.Time) { r.pending = append(r.pending, refSleeper{at, id}) }

func (r *sleepRef) drop(id int) {
	r.pending = slices.DeleteFunc(r.pending, func(s refSleeper) bool { return s.id == id })
}

// expire appends to out, in wake order, every sleeper due at tick.
func (r *sleepRef) expire(tick sim.Time, out []wake) []wake {
	for {
		best := -1
		for i, s := range r.pending {
			if s.at <= tick && (best < 0 || s.at < r.pending[best].at) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, wake{tick, r.pending[best].id})
		r.pending = slices.Delete(r.pending, best, best+1)
	}
}

// FuzzSleepHeap drives random sleep, early-wake, Retire and respawn
// sequences — with thread recycling on or off — through the kernel's
// sleep heap and a naive sorted reference, and requires identical wake
// order and PendingTimers after every step. Each input is at most 512
// steps of at most 8 simulated ms, over 32 fuzzed threads and, if the
// input asks, 300 background sleepers.
func FuzzSleepHeap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 3, 5})
	f.Add([]byte{1, 0, 4, 1, 4, 2, 4, 8, 1, 5, 0, 0, 2, 5, 3, 7})
	f.Add([]byte{1, 0, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 2, 2, 3, 0, 1, 1, 3, 7})
	f.Add([]byte{3, 0, 0, 0, 33, 0, 66, 3, 0, 1, 1, 1, 2, 3, 1})
	f.Fuzz(runSleepHeap)
}

// runSleepHeap runs one FuzzSleepHeap input: a byte of flags (recycle,
// background sleepers), then (op, arg) byte pairs.
func runSleepHeap(t *testing.T, data []byte) {
	const slots, tick = 32, sim.Millisecond
	const bgWake = sim.Time(5 * sim.Second) // after the longest input
	if len(data) == 0 {
		return
	}
	eng := sim.NewEngine()
	cfg := kernel.DefaultConfig()
	cfg.Recycle = data[0]&1 == 1
	k := kernel.New(eng, cfg, idlePolicy{})
	log := &wakeLog{}
	k.SetTracer(log)
	prog := kernel.ProgramFunc(func(*kernel.Thread, sim.Time) kernel.Op { return kernel.Exit() })
	// Background sleepers that outlast any input (second bit of the first
	// byte) fill the heap past its first storage chunk, so the fuzzed
	// entries sift across chunks; without them the bottom of the heap is
	// fuzzed entries too.
	var ref sleepRef
	for i := 0; data[0]&2 != 0 && i < 300; i++ {
		bg := k.Spawn("bg", prog)
		at := bgWake + sim.Time(sim.Duration(i%7)*tick)
		k.SleepThreadUntil(bg, at)
		ref.add(bg.ID(), at)
	}
	threads := make([]*kernel.Thread, slots)
	for i := range threads {
		threads[i] = k.Spawn("t", prog)
	}
	k.Start()
	eng.RunFor(tick / 2) // steps land between ticks
	var want []wake
	data = data[1:]
	for step := 0; len(data) >= 2 && step < 512; step++ {
		op, arg := data[0], int(data[1])
		data = data[2:]
		th := threads[arg%slots]
		now := k.Now()
		switch op % 4 {
		case 0: // sleep a ready thread for 0..7 quarter ticks
			if th.State() == kernel.StateReady {
				at := now.Add(sim.Duration(arg/slots) * tick / 4)
				k.SleepThreadUntil(th, at)
				ref.add(th.ID(), at)
			}
		case 1: // wake a sleeper early
			if th.State() == kernel.StateSleeping {
				k.Wake(th)
				ref.drop(th.ID())
				want = append(want, wake{now, th.ID()})
			}
		case 2: // retire, then spawn a replacement (a reissue when recycling)
			id := th.ID() // a recycled object forgets it
			k.Retire(th)
			ref.drop(id)
			threads[arg%slots] = k.Spawn("t", prog)
		case 3: // advance 1..8 ticks
			ms := 1 + arg%8
			for i := 0; i < ms; i++ {
				next := now.Add(sim.Duration(i)*tick + tick/2)
				want = ref.expire(next, want)
			}
			eng.RunFor(sim.Duration(ms) * tick)
		}
		if got := k.PendingTimers(); got != len(ref.pending) {
			t.Fatalf("step %d: PendingTimers = %d, reference holds %d", step, got, len(ref.pending))
		}
		checkWakes(t, fmt.Sprintf("step %d", step), log.wakes, want)
	}
	// Drain: run past every deadline, the background's included. Each
	// remaining sleeper wakes at the first tick at or after its deadline,
	// in (deadline, registration) order, and nobody is left asleep — an
	// entry lost or duplicated by a bad heap position shows up here.
	slices.SortStableFunc(ref.pending, func(a, b refSleeper) int { return cmp.Compare(a.at, b.at) })
	for _, s := range ref.pending {
		due := (s.at + sim.Time(tick) - 1) / sim.Time(tick) * sim.Time(tick)
		want = append(want, wake{due, s.id})
	}
	eng.RunUntil(bgWake + sim.Time(8*tick))
	checkWakes(t, "drain", log.wakes, want)
	if got := k.PendingTimers(); got != 0 {
		t.Fatalf("drain: PendingTimers = %d, want 0", got)
	}
	for _, th := range k.Threads() {
		if th.State() == kernel.StateSleeping {
			t.Fatalf("drain: %v still asleep", th)
		}
	}
}

// TestSleepPathAllocatesNothing proves a sleep never allocates: heap
// storage is reserved as threads are carved, so 10k threads' sleep → wake
// → sleep cycles cost no allocation, the first sleep of all 10k at once —
// a new population high — included.
func TestSleepPathAllocatesNothing(t *testing.T) {
	const n = 10_000
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig(), idlePolicy{})
	prog := kernel.ProgramFunc(func(*kernel.Thread, sim.Time) kernel.Op { return kernel.Exit() })
	threads := make([]*kernel.Thread, n)
	for i := range threads {
		threads[i] = k.Spawn("sleeper", prog)
	}
	k.Start()
	// Many laps of the engine's event wheel, with nobody asleep, so the
	// tick event's first visit to each wheel slot is not counted.
	eng.RunFor(sim.Second + sim.Millisecond/2)
	cycle := func() {
		now := k.Now()
		for i, th := range threads {
			k.SleepThreadUntil(th, now.Add(sim.Duration(i%4)*sim.Millisecond))
		}
		for i := 0; i < n; i += 3 {
			k.Wake(threads[i])
		}
		eng.RunFor(4 * sim.Millisecond)
	}
	// AllocsPerRun discards a warm-up call, so the first cycle, which takes
	// the heap to n entries for the first time, is measured by hand.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cycle()
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != 0 {
		t.Fatalf("first sleep of %d threads allocated %d objects, want 0", n, got)
	}
	if got := testing.AllocsPerRun(5, cycle); got != 0 {
		t.Fatalf("sleep→wake→sleep cycle of %d threads allocated %.1f objects, want 0", n, got)
	}
	if got := k.PendingTimers(); got != 0 {
		t.Fatalf("PendingTimers = %d after every deadline passed, want 0", got)
	}
}
