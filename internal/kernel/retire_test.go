package kernel_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// sleeper returns a program that sleeps in fixed intervals forever.
func sleeper(d sim.Duration) kernel.Program {
	op := kernel.Sleep(d)
	return kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		return op
	})
}

// TestRetireSleeperReleasesTimer guards the Retire path of a sleeping
// thread: its sleep-heap entry is removed at once — a stale entry would
// wake (and re-enqueue) a retired thread.
func TestRetireSleeperReleasesTimer(t *testing.T) {
	eng, k := newRRMachine(10 * sim.Millisecond)
	s := k.Spawn("sleeper", sleeper(100*sim.Millisecond))
	k.Start()
	eng.RunFor(5 * sim.Millisecond) // the sleeper is parked on its timer
	if s.State() != kernel.StateSleeping {
		t.Fatalf("state = %v, want sleeping", s.State())
	}
	if k.PendingTimers() == 0 {
		t.Fatal("no pending wake timer for the sleeper")
	}
	k.Retire(s)
	if s.State() != kernel.StateExited {
		t.Fatalf("state after Retire = %v", s.State())
	}
	if got := k.PendingTimers(); got != 0 {
		t.Fatalf("pending timers = %d right after Retire, want 0", got)
	}
	// Run past the original wake time: the thread must stay retired.
	eng.RunFor(200 * sim.Millisecond)
	if s.State() != kernel.StateExited {
		t.Fatalf("retired sleeper woke up: %v", s.State())
	}
	k.Stop()
}

// TestRetireRunningThreadClosesAccounting retires the thread that is on
// the CPU, from an engine callback mid-segment — the Kill-under-churn
// shape. The partial segment must be charged and time accounting must
// stay closed.
func TestRetireRunningThreadClosesAccounting(t *testing.T) {
	eng, k := newRRMachine(10 * sim.Millisecond)
	victim := k.Spawn("victim", hog(400_000))
	other := k.Spawn("other", hog(400_000))
	k.Start()
	eng.After(503*sim.Microsecond, func(now sim.Time) {
		if k.Current() == victim {
			k.Retire(victim)
		} else {
			k.Retire(other)
		}
	})
	eng.RunFor(sim.Second)
	k.Stop()

	retired, survivor := victim, other
	if retired.State() != kernel.StateExited {
		retired, survivor = other, victim
	}
	if retired.State() != kernel.StateExited {
		t.Fatal("neither thread retired")
	}
	if retired.CPUTime() == 0 {
		t.Fatal("mid-segment retirement dropped the partial charge")
	}
	st := k.Stats()
	total := retired.CPUTime() + survivor.CPUTime() + st.Idle + st.Overhead
	if diff := st.Elapsed - total; diff < -sim.Millisecond || diff > sim.Millisecond {
		t.Fatalf("accounting leaks %v (elapsed %v, accounted %v)", diff, st.Elapsed, total)
	}
	// The survivor owns the machine afterwards.
	if frac := survivor.CPUTime().Seconds(); frac < 0.9 {
		t.Fatalf("survivor got only %.3f of the CPU after the retirement", frac)
	}
}

// TestSpawnRetireChurnLeaksNothing cycles spawn/retire at high rate and
// checks the machine ends with no pending timers, a consistent thread
// census, and closed accounting — the kernel half of the admission-churn
// stress.
func TestSpawnRetireChurnLeaksNothing(t *testing.T) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig(), baseline.NewRoundRobin(sim.Millisecond))
	exits := 0
	k.SetExitHook(func(tt *kernel.Thread, now sim.Time) { exits++ })
	keeper := k.Spawn("keeper", hog(400_000))
	k.Start()

	const cycles = 200
	rng := sim.NewRNG(7)
	var live []*kernel.Thread
	var schedule func(now sim.Time)
	spawned := 0
	schedule = func(now sim.Time) {
		// Retire roughly half the live churn threads, then spawn new ones:
		// sleepers at various depths, hogs, and instant-exiters.
		keep := live[:0]
		for _, th := range live {
			if rng.Intn(2) == 0 {
				k.Retire(th)
			} else {
				keep = append(keep, th)
			}
		}
		live = keep
		if spawned < cycles {
			for i := 0; i < 4; i++ {
				spawned++
				var prog kernel.Program
				switch rng.Intn(3) {
				case 0:
					prog = sleeper(sim.Duration(1+rng.Intn(20)) * sim.Millisecond)
				case 1:
					prog = hog(sim.Cycles(100_000 + rng.Intn(400_000)))
				default:
					prog = kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
						return kernel.Exit()
					})
				}
				live = append(live, k.Spawn("churn", prog))
			}
			eng.After(2*sim.Millisecond, schedule)
		} else {
			for _, th := range live {
				k.Retire(th)
			}
			live = nil
		}
	}
	eng.After(sim.Millisecond, schedule)
	eng.RunFor(sim.Second)
	// Retire removes a sleeper's heap entry at once, so once churn ends
	// (~150 ms in) nothing is left asleep.
	if got := k.PendingTimers(); got != 0 {
		t.Fatalf("pending timers = %d after churn, want 0", got)
	}
	k.Stop()

	exited := 0
	var busy sim.Duration
	for _, th := range k.Threads() {
		busy += th.CPUTime()
		if th == keeper {
			continue
		}
		if th.State() != kernel.StateExited {
			t.Fatalf("churn thread %v leaked in state %v", th, th.State())
		}
		exited++
	}
	if exited != spawned {
		t.Fatalf("spawned %d churn threads, %d exited", spawned, exited)
	}
	if exits != exited {
		t.Fatalf("exit hook fired %d times for %d exits", exits, exited)
	}
	st := k.Stats()
	total := busy + st.Idle + st.Overhead
	if diff := st.Elapsed - total; diff < -sim.Millisecond || diff > sim.Millisecond {
		t.Fatalf("accounting leaks %v under churn", diff)
	}
}

// TestRetireIdempotent pins double-Retire and Retire-after-exit as no-ops.
func TestRetireIdempotent(t *testing.T) {
	eng, k := newRRMachine(10 * sim.Millisecond)
	exits := 0
	k.SetExitHook(func(tt *kernel.Thread, now sim.Time) { exits++ })
	a := k.Spawn("a", kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		return kernel.Exit()
	}))
	k.Spawn("b", hog(400_000))
	k.Start()
	eng.RunFor(10 * sim.Millisecond)
	if a.State() != kernel.StateExited {
		t.Fatalf("a did not exit: %v", a.State())
	}
	k.Retire(a)
	k.Retire(a)
	if exits != 1 {
		t.Fatalf("exit hook fired %d times, want exactly 1", exits)
	}
	k.Stop()
}

// TestSlotsDenseAndKeptAcrossRecycling pins the slot contract the
// slot-indexed tables above the kernel rely on: fresh thread objects are
// numbered 0, 1, 2, … in carving order, a recycled object keeps its slot
// under a new ID and generation, and live threads never share a slot.
func TestSlotsDenseAndKeptAcrossRecycling(t *testing.T) {
	cfg := kernel.DefaultConfig()
	cfg.Recycle = true
	k := kernel.New(sim.NewEngine(), cfg, baseline.NewRoundRobin(10*sim.Millisecond))
	a := k.Spawn("a", sleeper(sim.Millisecond))
	b := k.Spawn("b", sleeper(sim.Millisecond))
	if a.Slot() != 0 || b.Slot() != 1 {
		t.Fatalf("fresh slots %d, %d, want 0, 1", a.Slot(), b.Slot())
	}
	k.Retire(a)
	c := k.Spawn("c", sleeper(sim.Millisecond))
	if c != a || c.Slot() != 0 || c.Gen() != 1 {
		t.Fatalf("reissued object: same=%v slot %d gen %d, want the retired object at slot 0, gen 1", c == a, c.Slot(), c.Gen())
	}
	d := k.Spawn("d", sleeper(sim.Millisecond))
	if d.Slot() != 2 {
		t.Fatalf("next fresh slot %d, want 2", d.Slot())
	}

	var tbl []int
	for slot, want := range map[int]int{0: 8, 7: 8, 8: 16, 200: 256, 256: 512, 700: 768} {
		if got := len(kernel.GrowSlots(tbl, slot)); got != want {
			t.Errorf("GrowSlots(empty, %d) has %d entries, want %d", slot, got, want)
		}
	}
	tbl = kernel.GrowSlots(tbl, 3)
	tbl[3] = 42
	if tbl = kernel.GrowSlots(tbl, 300); tbl[3] != 42 || len(tbl) != 512 {
		t.Fatalf("growing lost an entry or overshot: tbl[3]=%d len %d", tbl[3], len(tbl))
	}
}
