package rbs_test

import (
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/rbs"
	"repro/internal/sim"
)

func hog(burst sim.Cycles) kernel.Program {
	return kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		return kernel.Compute(burst)
	})
}

func newMachine() (*sim.Engine, *kernel.Kernel, *rbs.Policy) {
	eng := sim.NewEngine()
	p := rbs.New()
	k := kernel.New(eng, kernel.DefaultConfig(), p)
	return eng, k, p
}

func share(t *kernel.Thread, elapsed sim.Duration) float64 {
	return t.CPUTime().Seconds() / elapsed.Seconds()
}

func TestReservationBudget(t *testing.T) {
	r := rbs.Reservation{Proportion: 50, Period: 30 * sim.Millisecond}
	if b := r.Budget(); b != 1500*sim.Microsecond {
		t.Fatalf("Budget = %v, want 1.5ms (the paper's own example)", b)
	}
}

func TestSetReservationValidation(t *testing.T) {
	_, k, p := newMachine()
	th := k.Spawn("x", hog(1000))
	if err := p.SetReservation(th, rbs.Reservation{Proportion: -1, Period: sim.Millisecond}); err == nil {
		t.Fatal("negative proportion accepted")
	}
	if err := p.SetReservation(th, rbs.Reservation{Proportion: 1001, Period: sim.Millisecond}); err == nil {
		t.Fatal("proportion > 1000 accepted")
	}
	if err := p.SetReservation(th, rbs.Reservation{Proportion: 100, Period: 0}); err == nil {
		t.Fatal("zero period accepted")
	}
	if err := p.SetReservation(th, rbs.Reservation{Proportion: 100, Period: 10 * sim.Millisecond}); err != nil {
		t.Fatalf("valid reservation rejected: %v", err)
	}
	res, ok := p.ReservationOf(th)
	if !ok || res.Proportion != 100 {
		t.Fatalf("ReservationOf = %v, %v", res, ok)
	}
}

func TestProportionEnforcedAgainstGreedyThread(t *testing.T) {
	// A CPU-bound registered thread must get its proportion and no more
	// (modulo tick quantization), with the leftover going idle.
	eng, k, p := newMachine()
	th := k.Spawn("greedy", hog(1_000_000))
	if err := p.SetReservation(th, rbs.Reservation{Proportion: 200, Period: 20 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	k.Start()
	eng.RunFor(5 * sim.Second)
	k.Stop()

	got := share(th, 5*sim.Second)
	// Budget 4ms/20ms = 20%; quantization can overrun up to ~1 tick per
	// period (1ms/20ms = 5%).
	if got < 0.19 || got > 0.26 {
		t.Fatalf("share = %.4f, want ≈0.20..0.25", got)
	}
}

func TestPreciseAccountingRemovesQuantizationOverrun(t *testing.T) {
	run := func(precise bool) float64 {
		eng := sim.NewEngine()
		p := rbs.New()
		p.PreciseAccounting = precise
		k := kernel.New(eng, kernel.DefaultConfig(), p)
		th := k.Spawn("greedy", hog(1_000_000))
		if err := p.SetReservation(th, rbs.Reservation{Proportion: 150, Period: 10 * sim.Millisecond}); err != nil {
			t.Fatal(err)
		}
		k.Start()
		eng.RunFor(5 * sim.Second)
		k.Stop()
		return share(th, 5*sim.Second)
	}
	quantized := run(false)
	precise := run(true)
	if precise > quantized {
		t.Fatalf("precise %.4f should not exceed quantized %.4f", precise, quantized)
	}
	if precise < 0.149 || precise > 0.156 {
		t.Fatalf("precise share = %.4f, want ≈0.15", precise)
	}
	if quantized < 0.15 {
		t.Fatalf("quantized share = %.4f, should include overrun ≥0.15", quantized)
	}
}

func TestBudgetExhaustionNapsUntilNextPeriod(t *testing.T) {
	eng, k, p := newMachine()
	th := k.Spawn("napper", hog(10_000_000))
	if err := p.SetReservation(th, rbs.Reservation{Proportion: 100, Period: 10 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	k.Start()
	// After 5ms the 1ms budget is long spent; the thread must be asleep.
	eng.RunFor(5 * sim.Millisecond)
	if th.State() != kernel.StateSleeping {
		t.Fatalf("state at 5ms = %v, want sleeping (budget spent)", th.State())
	}
	// At 11ms the next period has begun; it must have run again.
	used := th.CPUTime()
	eng.RunFor(7 * sim.Millisecond)
	k.Stop()
	if th.CPUTime() <= used {
		t.Fatal("thread did not resume in its next period")
	}
}

func TestUnmanagedThreadsGetLeftover(t *testing.T) {
	eng, k, p := newMachine()
	reserved := k.Spawn("reserved", hog(1_000_000))
	best := k.Spawn("besteffort", hog(1_000_000))
	if err := p.SetReservation(reserved, rbs.Reservation{Proportion: 600, Period: 10 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	k.Start()
	eng.RunFor(5 * sim.Second)
	k.Stop()
	rs := share(reserved, 5*sim.Second)
	bs := share(best, 5*sim.Second)
	if rs < 0.58 || rs > 0.72 {
		t.Fatalf("reserved share = %.3f, want ≈0.6", rs)
	}
	if bs < 0.25 {
		t.Fatalf("best-effort share = %.3f, want the ≈0.4 leftover", bs)
	}
}

func TestRegisteredAlwaysBeatsUnmanaged(t *testing.T) {
	// Even a tiny reservation must be delivered against unmanaged load.
	eng, k, p := newMachine()
	small := k.Spawn("small", hog(1_000_000))
	k.Spawn("load1", hog(1_000_000))
	k.Spawn("load2", hog(1_000_000))
	if err := p.SetReservation(small, rbs.Reservation{Proportion: 100, Period: 10 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	k.Start()
	eng.RunFor(5 * sim.Second)
	k.Stop()
	got := share(small, 5*sim.Second)
	if got < 0.095 {
		t.Fatalf("reserved 10%% but got %.4f against unmanaged load", got)
	}
}

func TestRateMonotonicOrdering(t *testing.T) {
	// Two registered threads: the shorter-period one must win dispatch
	// when both are runnable ("jobs with shorter periods have higher
	// goodness values"). Verify both still meet their reservations.
	eng, k, p := newMachine()
	fast := k.Spawn("fast", hog(1_000_000))
	slow := k.Spawn("slow", hog(1_000_000))
	if err := p.SetReservation(fast, rbs.Reservation{Proportion: 300, Period: 5 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetReservation(slow, rbs.Reservation{Proportion: 300, Period: 50 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	k.Start()
	eng.RunFor(5 * sim.Second)
	k.Stop()
	fs, ss := share(fast, 5*sim.Second), share(slow, 5*sim.Second)
	if fs < 0.29 {
		t.Fatalf("fast share = %.3f, want ≥0.30", fs)
	}
	if ss < 0.29 {
		t.Fatalf("slow share = %.3f, want ≥0.30", ss)
	}
}

func TestProportionIncreaseMidPeriodTakesEffect(t *testing.T) {
	eng, k, p := newMachine()
	th := k.Spawn("adaptee", hog(10_000_000))
	if err := p.SetReservation(th, rbs.Reservation{Proportion: 50, Period: 100 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	k.Start()
	// Burn the 5ms budget, thread naps until t=100ms.
	eng.RunFor(20 * sim.Millisecond)
	if th.State() != kernel.StateSleeping {
		t.Fatalf("state = %v, want sleeping", th.State())
	}
	// Raise the allocation; the nap must end without waiting for t=100ms.
	if err := p.SetReservation(th, rbs.Reservation{Proportion: 500, Period: 100 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(30 * sim.Millisecond)
	k.Stop()
	// By t=50ms the thread should have run ≈5ms (old) + up to 45ms more
	// capped by the new 50ms budget; definitely more than the old 5ms.
	if th.CPUTime() < 10*sim.Millisecond {
		t.Fatalf("CPU after raise = %v, want the raised allocation to flow", th.CPUTime())
	}
}

func TestTotalProportionSums(t *testing.T) {
	_, k, p := newMachine()
	a := k.Spawn("a", hog(1000))
	b := k.Spawn("b", hog(1000))
	k.Spawn("c", hog(1000)) // unregistered
	p.SetReservation(a, rbs.Reservation{Proportion: 250, Period: 10 * sim.Millisecond})
	p.SetReservation(b, rbs.Reservation{Proportion: 300, Period: 20 * sim.Millisecond})
	if got := p.TotalProportion(); got != 550 {
		t.Fatalf("TotalProportion = %d, want 550", got)
	}
	p.Unregister(b)
	if got := p.TotalProportion(); got != 250 {
		t.Fatalf("TotalProportion after unregister = %d, want 250", got)
	}
}

func TestNoMissedDeadlinesWhenUndersubscribed(t *testing.T) {
	eng, k, p := newMachine()
	a := k.Spawn("a", hog(1_000_000))
	b := k.Spawn("b", hog(1_000_000))
	p.SetReservation(a, rbs.Reservation{Proportion: 300, Period: 10 * sim.Millisecond})
	p.SetReservation(b, rbs.Reservation{Proportion: 300, Period: 30 * sim.Millisecond})
	k.Start()
	eng.RunFor(5 * sim.Second)
	k.Stop()
	if p.MissedDeadlines() != 0 {
		t.Fatalf("missed %d deadlines on an undersubscribed machine", p.MissedDeadlines())
	}
}

func TestBlockedThreadDoesNotBurnBudget(t *testing.T) {
	// A registered consumer blocked on an empty queue must not lose its
	// reservation: when data arrives it still has budget.
	eng, k, p := newMachine()
	q := k.NewQueue("pipe", 4096)
	consumed := 0
	phase := 0
	cons := k.Spawn("cons", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		phase++
		if phase%2 == 1 {
			return kernel.Consume(q, 256)
		}
		consumed++
		return kernel.Compute(40_000)
	}))
	p.SetReservation(cons, rbs.Reservation{Proportion: 300, Period: 10 * sim.Millisecond})
	k.Spawn("load", hog(1_000_000))
	k.Start()
	eng.RunFor(500 * sim.Millisecond) // consumer blocks, load runs
	if cons.State() != kernel.StateBlocked {
		t.Fatalf("consumer state = %v, want blocked", cons.State())
	}
	// Feed bursts and check the consumer drains them promptly. The
	// producer gets its own reservation so the unmanaged hog cannot delay
	// it (sleep wakeups land on 1ms ticks, so ≈1 block every 2 ticks).
	prodPhase := 0
	prod := k.Spawn("prod", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		prodPhase++
		if prodPhase%2 == 1 {
			return kernel.Produce(q, 256)
		}
		return kernel.Sleep(sim.Millisecond)
	}))
	p.SetReservation(prod, rbs.Reservation{Proportion: 100, Period: 5 * sim.Millisecond})
	eng.RunFor(500 * sim.Millisecond)
	k.Stop()
	if consumed < 200 {
		t.Fatalf("consumer processed %d blocks in 500ms, want ≈250+", consumed)
	}
}

// Property: for random undersubscribed reservation sets, every CPU-bound
// registered thread receives at least its proportion over a long window
// (quantization only ever over-delivers).
func TestPropertyReservationsDelivered(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		eng := sim.NewEngine()
		p := rbs.New()
		k := kernel.New(eng, kernel.DefaultConfig(), p)
		n := 2 + rng.Intn(4)
		var threads []*kernel.Thread
		var props []int
		budgetLeft := 700 // keep the machine undersubscribed
		periods := []sim.Duration{5, 10, 20, 30, 50}
		for i := 0; i < n; i++ {
			prop := 50 + rng.Intn(150)
			if prop > budgetLeft {
				break
			}
			budgetLeft -= prop
			th := k.Spawn("t", hog(1_000_000))
			per := periods[rng.Intn(len(periods))] * sim.Duration(sim.Millisecond)
			if err := p.SetReservation(th, rbs.Reservation{Proportion: prop, Period: per}); err != nil {
				return false
			}
			threads = append(threads, th)
			props = append(props, prop)
		}
		if len(threads) == 0 {
			return true
		}
		k.Start()
		eng.RunFor(3 * sim.Second)
		k.Stop()
		for i, th := range threads {
			want := float64(props[i]) / 1000
			got := share(th, 3*sim.Second)
			if got < want*0.97 {
				t.Logf("seed %d: thread %d got %.4f, want ≥%.4f", seed, i, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
