package baseline_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/kernel"
	"repro/internal/sim"
)

func TestLotteryProportionalInExpectation(t *testing.T) {
	eng := sim.NewEngine()
	lot := baseline.NewLottery(10*sim.Millisecond, 42)
	k := kernel.New(eng, kernel.DefaultConfig(), lot)
	a := k.Spawn("a", hog(400_000))
	b := k.Spawn("b", hog(400_000))
	lot.SetTickets(a, 300)
	lot.SetTickets(b, 100)
	k.Start()
	eng.RunFor(20 * sim.Second)
	k.Stop()

	ra := a.CPUTime().Seconds()
	rb := b.CPUTime().Seconds()
	ratio := ra / rb
	// 3:1 tickets → 3:1 CPU in expectation; allow lottery noise.
	if ratio < 2.3 || ratio > 3.9 {
		t.Fatalf("ticket ratio 3:1 gave CPU ratio %.2f (%.2fs/%.2fs)", ratio, ra, rb)
	}
}

func TestLotteryNoStarvation(t *testing.T) {
	eng := sim.NewEngine()
	lot := baseline.NewLottery(10*sim.Millisecond, 7)
	k := kernel.New(eng, kernel.DefaultConfig(), lot)
	small := k.Spawn("small", hog(400_000))
	big := k.Spawn("big", hog(400_000))
	lot.SetTickets(small, 10)
	lot.SetTickets(big, 990)
	k.Start()
	eng.RunFor(20 * sim.Second)
	k.Stop()
	if small.CPUTime() < 50*sim.Millisecond {
		t.Fatalf("small ticket holder effectively starved: %v", small.CPUTime())
	}
}

func TestLotteryDeterministicWithSeed(t *testing.T) {
	run := func() sim.Duration {
		eng := sim.NewEngine()
		lot := baseline.NewLottery(10*sim.Millisecond, 99)
		k := kernel.New(eng, kernel.DefaultConfig(), lot)
		a := k.Spawn("a", hog(400_000))
		k.Spawn("b", hog(400_000))
		k.Start()
		eng.RunFor(5 * sim.Second)
		k.Stop()
		return a.CPUTime()
	}
	if run() != run() {
		t.Fatal("same seed produced different schedules")
	}
}

func TestLotteryBlockedThreadsExcluded(t *testing.T) {
	eng := sim.NewEngine()
	lot := baseline.NewLottery(10*sim.Millisecond, 3)
	k := kernel.New(eng, kernel.DefaultConfig(), lot)
	// A sleeper holds most tickets but is almost never runnable.
	phase := 0
	sleeper := k.Spawn("sleeper", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		phase++
		if phase%2 == 1 {
			return kernel.Sleep(100 * sim.Millisecond)
		}
		return kernel.Compute(40_000)
	}))
	lot.SetTickets(sleeper, 10_000)
	worker := k.Spawn("worker", hog(400_000))
	k.Start()
	eng.RunFor(5 * sim.Second)
	k.Stop()
	if worker.CPUTime() < 4500*sim.Millisecond {
		t.Fatalf("worker got %v; sleeping tickets must not count", worker.CPUTime())
	}
}

func TestLotteryTicketValidation(t *testing.T) {
	eng := sim.NewEngine()
	lot := baseline.NewLottery(0, 1) // default quantum path too
	k := kernel.New(eng, kernel.DefaultConfig(), lot)
	th := k.Spawn("x", hog(1000))
	if lot.Tickets(th) != 100 {
		t.Fatalf("default tickets = %d, want 100", lot.Tickets(th))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive tickets accepted")
		}
	}()
	lot.SetTickets(th, 0)
}

// TestLotteryChurnExercisesSlotCompaction cycles many sleepers through the
// runnable set so enqueues burn through thousands of drawing slots: the
// Fenwick tree must compact without disturbing proportionality and the
// slot space must stay O(live threads).
func TestLotteryChurnExercisesSlotCompaction(t *testing.T) {
	eng := sim.NewEngine()
	lot := baseline.NewLottery(sim.Millisecond, 1234)
	k := kernel.New(eng, kernel.DefaultConfig(), lot)
	mk := func(name string) *kernel.Thread {
		phase := 0
		return k.Spawn(name, kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
			phase++
			if phase%2 == 1 {
				return kernel.Compute(100_000)
			}
			return kernel.Sleep(3 * sim.Millisecond)
		}))
	}
	var churners []*kernel.Thread
	for i := 0; i < 40; i++ {
		churners = append(churners, mk("churn"))
	}
	big := k.Spawn("big", hog(400_000))
	small := k.Spawn("small", hog(400_000))
	lot.SetTickets(big, 900)
	lot.SetTickets(small, 300)
	k.Start()
	eng.RunFor(20 * sim.Second)
	k.Stop()
	for _, th := range churners {
		if th.CPUTime() == 0 {
			t.Fatal("churner starved across slot compactions")
		}
	}
	ratio := big.CPUTime().Seconds() / small.CPUTime().Seconds()
	if ratio < 2.2 || ratio > 4.0 {
		t.Fatalf("3:1 tickets gave CPU ratio %.2f under slot churn", ratio)
	}
}

// TestLotteryTicketChangeWhileRunnable pins SetTickets' incremental
// Fenwick update for runnable threads.
func TestLotteryTicketChangeWhileRunnable(t *testing.T) {
	eng := sim.NewEngine()
	lot := baseline.NewLottery(10*sim.Millisecond, 5)
	k := kernel.New(eng, kernel.DefaultConfig(), lot)
	a := k.Spawn("a", hog(400_000))
	b := k.Spawn("b", hog(400_000))
	k.Start()
	eng.RunFor(sim.Second)
	// Flip the odds 1:1 → 9:1 mid-run, while both threads are runnable.
	lot.SetTickets(a, 900)
	lot.SetTickets(b, 100)
	beforeA, beforeB := a.CPUTime(), b.CPUTime()
	eng.RunFor(20 * sim.Second)
	k.Stop()
	da := (a.CPUTime() - beforeA).Seconds()
	db := (b.CPUTime() - beforeB).Seconds()
	if ratio := da / db; ratio < 5 {
		t.Fatalf("9:1 tickets after change gave CPU ratio %.2f", ratio)
	}
}
