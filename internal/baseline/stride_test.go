package baseline_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestStrideProportional(t *testing.T) {
	eng := sim.NewEngine()
	st := baseline.NewStride(10 * sim.Millisecond)
	k := kernel.New(eng, kernel.DefaultConfig(), st)
	a := k.Spawn("a", hog(400_000))
	b := k.Spawn("b", hog(400_000))
	st.SetTickets(a, 300)
	st.SetTickets(b, 100)
	k.Start()
	eng.RunFor(10 * sim.Second)
	k.Stop()
	ratio := a.CPUTime().Seconds() / b.CPUTime().Seconds()
	// Stride is deterministic: the 3:1 ratio should be tight.
	if ratio < 2.8 || ratio > 3.2 {
		t.Fatalf("ticket ratio 3:1 gave CPU ratio %.3f", ratio)
	}
}

func TestStrideLowerVarianceThanLottery(t *testing.T) {
	measure := func(policy kernel.Policy, setTickets func(t *kernel.Thread, n int64)) float64 {
		eng := sim.NewEngine()
		k := kernel.New(eng, kernel.DefaultConfig(), policy)
		a := k.Spawn("a", hog(400_000))
		b := k.Spawn("b", hog(400_000))
		setTickets(a, 500)
		setTickets(b, 500)
		s := metrics.NewSeries("share")
		var last sim.Duration
		metrics.Sample(eng, 100*sim.Millisecond, sim.Time(10*sim.Second), func(now sim.Time) {
			cur := a.CPUTime()
			s.Add(now, (cur-last).Seconds()/0.1)
			last = cur
		})
		k.Start()
		eng.RunFor(10 * sim.Second)
		k.Stop()
		return metrics.StdDev(s.Values())
	}
	lot := baseline.NewLottery(10*sim.Millisecond, 5)
	stdLottery := measure(lot, lot.SetTickets)
	str := baseline.NewStride(10 * sim.Millisecond)
	stdStride := measure(str, str.SetTickets)
	if stdStride >= stdLottery {
		t.Fatalf("stride std %.4f not below lottery std %.4f", stdStride, stdLottery)
	}
}

func TestStrideSleeperCannotBankCredit(t *testing.T) {
	eng := sim.NewEngine()
	st := baseline.NewStride(10 * sim.Millisecond)
	k := kernel.New(eng, kernel.DefaultConfig(), st)
	// Sleeps 900ms, then wants the CPU. Without the rejoin rule it would
	// monopolize the machine for its banked pass.
	phase := 0
	sleeper := k.Spawn("sleeper", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		phase++
		if phase == 1 {
			return kernel.Sleep(900 * sim.Millisecond)
		}
		return kernel.Compute(400_000)
	}))
	worker := k.Spawn("worker", hog(400_000))
	k.Start()
	eng.RunFor(2 * sim.Second)
	k.Stop()
	// After waking at 0.9s, the sleeper shares 50/50 for 1.1s ≈ 0.55s; it
	// must not have much more than that.
	if sleeper.CPUTime() > 700*sim.Millisecond {
		t.Fatalf("sleeper banked credit: %v", sleeper.CPUTime())
	}
	if worker.CPUTime() < 1200*sim.Millisecond {
		t.Fatalf("worker got %v, want ≈1.45s", worker.CPUTime())
	}
}

func TestStrideTicketValidation(t *testing.T) {
	eng := sim.NewEngine()
	st := baseline.NewStride(0)
	k := kernel.New(eng, kernel.DefaultConfig(), st)
	th := k.Spawn("x", hog(1000))
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive tickets accepted")
		}
	}()
	st.SetTickets(th, -1)
}

// TestStridePassHeapUnderChurn stresses the indexed pass heap: sleepers
// leave and rejoin at the minimum pass constantly, while two CPU-bound
// threads with 3:1 tickets must still split the CPU 3:1.
func TestStridePassHeapUnderChurn(t *testing.T) {
	eng := sim.NewEngine()
	str := baseline.NewStride(sim.Millisecond)
	k := kernel.New(eng, kernel.DefaultConfig(), str)
	for i := 0; i < 40; i++ {
		phase := 0
		k.Spawn("churn", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
			phase++
			if phase%2 == 1 {
				return kernel.Compute(50_000)
			}
			return kernel.Sleep(2 * sim.Millisecond)
		}))
	}
	a := k.Spawn("a", hog(400_000))
	b := k.Spawn("b", hog(400_000))
	str.SetTickets(a, 300)
	str.SetTickets(b, 100)
	k.Start()
	eng.RunFor(20 * sim.Second)
	k.Stop()
	ratio := a.CPUTime().Seconds() / b.CPUTime().Seconds()
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("3:1 tickets gave CPU ratio %.2f under churn", ratio)
	}
}
