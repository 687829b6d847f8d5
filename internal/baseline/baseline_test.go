package baseline_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/kernel"
	"repro/internal/sim"
)

func hog(burst sim.Cycles) kernel.Program {
	return kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		return kernel.Compute(burst)
	})
}

func TestRoundRobinEqualSplitThreeWays(t *testing.T) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig(), baseline.NewRoundRobin(5*sim.Millisecond))
	var ths []*kernel.Thread
	for i := 0; i < 3; i++ {
		ths = append(ths, k.Spawn("h", hog(400_000)))
	}
	k.Start()
	eng.RunFor(3 * sim.Second)
	k.Stop()
	for i, th := range ths {
		s := th.CPUTime().Seconds()
		if s < 0.85 || s > 1.15 {
			t.Fatalf("thread %d got %.3fs of 3s, want ≈1s", i, s)
		}
	}
}

func TestRoundRobinDefaultQuantum(t *testing.T) {
	p := baseline.NewRoundRobin(0)
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig(), p)
	k.Spawn("a", hog(400_000))
	b := k.Spawn("b", hog(400_000))
	k.Start()
	eng.RunFor(sim.Second)
	k.Stop()
	if b.CPUTime() < 400*sim.Millisecond {
		t.Fatalf("default quantum starved second thread: %v", b.CPUTime())
	}
}

func TestLinuxEpochRecalculation(t *testing.T) {
	// Two equal time-sharing hogs must alternate across epochs and end up
	// with close to equal CPU.
	eng := sim.NewEngine()
	lp := baseline.NewLinux()
	k := kernel.New(eng, kernel.DefaultConfig(), lp)
	a := k.Spawn("a", hog(400_000))
	b := k.Spawn("b", hog(400_000))
	k.Start()
	eng.RunFor(4 * sim.Second)
	k.Stop()
	ra, rb := a.CPUTime().Seconds(), b.CPUTime().Seconds()
	if ra/rb < 0.8 || ra/rb > 1.25 {
		t.Fatalf("goodness scheduler unfair: %.2f vs %.2f", ra, rb)
	}
}

func TestLinuxNiceMonotone(t *testing.T) {
	// More nice (lower priority) must mean less CPU, monotonically.
	shares := make([]float64, 0, 3)
	for _, nice := range []int{0, 10, 19} {
		eng := sim.NewEngine()
		lp := baseline.NewLinux()
		k := kernel.New(eng, kernel.DefaultConfig(), lp)
		ref := k.Spawn("ref", hog(400_000))
		niced := k.Spawn("niced", hog(400_000))
		lp.SetNice(niced, nice)
		k.Start()
		eng.RunFor(4 * sim.Second)
		k.Stop()
		_ = ref
		shares = append(shares, niced.CPUTime().Seconds())
	}
	if !(shares[0] > shares[1] && shares[1] > shares[2]) {
		t.Fatalf("nice not monotone: %v", shares)
	}
}

func TestLinuxNiceClamped(t *testing.T) {
	eng := sim.NewEngine()
	lp := baseline.NewLinux()
	k := kernel.New(eng, kernel.DefaultConfig(), lp)
	th := k.Spawn("x", hog(1000))
	lp.SetNice(th, 100)  // clamps to 19
	lp.SetNice(th, -100) // clamps to -20
}

func TestLinuxRealtimeBeatsRealtimeByPriority(t *testing.T) {
	eng := sim.NewEngine()
	lp := baseline.NewLinux()
	k := kernel.New(eng, kernel.DefaultConfig(), lp)
	hi := k.Spawn("hi", hog(400_000))
	lo := k.Spawn("lo", hog(400_000))
	lp.SetRealtime(hi, 50)
	lp.SetRealtime(lo, 10)
	k.Start()
	eng.RunFor(sim.Second)
	k.Stop()
	if lo.CPUTime() > 10*sim.Millisecond {
		t.Fatalf("lower RT priority ran %v against a spinning higher one", lo.CPUTime())
	}
}

func TestLinuxRealtimeYieldsWhenBlocked(t *testing.T) {
	// An RT thread that sleeps lets time-sharing threads run in the gaps.
	eng := sim.NewEngine()
	lp := baseline.NewLinux()
	k := kernel.New(eng, kernel.DefaultConfig(), lp)
	phase := 0
	rt := k.Spawn("rt", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		phase++
		if phase%2 == 1 {
			return kernel.Compute(400_000) // 1ms
		}
		return kernel.Sleep(9 * sim.Millisecond)
	}))
	lp.SetRealtime(rt, 50)
	ts := k.Spawn("ts", hog(400_000))
	k.Start()
	eng.RunFor(2 * sim.Second)
	k.Stop()
	if ts.CPUTime() < 1500*sim.Millisecond {
		t.Fatalf("time-sharing thread got %v, want ≈1.8s of the gaps", ts.CPUTime())
	}
	if rt.CPUTime() < 150*sim.Millisecond {
		t.Fatalf("rt thread got %v, want ≈200ms", rt.CPUTime())
	}
}

func TestLinuxInteractivePreemptsOnWake(t *testing.T) {
	eng := sim.NewEngine()
	lp := baseline.NewLinux()
	k := kernel.New(eng, kernel.DefaultConfig(), lp)
	k.Spawn("hog", hog(10_000_000)) // long bursts: preemption must cut in
	woke := 0
	phase := 0
	inter := k.Spawn("inter", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		phase++
		if phase%2 == 1 {
			return kernel.Sleep(50 * sim.Millisecond)
		}
		woke++
		return kernel.Compute(40_000)
	}))
	_ = inter
	k.Start()
	eng.RunFor(2 * sim.Second)
	k.Stop()
	// ≈40 wake opportunities in 2s; the sleeper must get most of them
	// despite the hog's 25ms bursts.
	if woke < 30 {
		t.Fatalf("interactive thread woke %d times, want ≈40", woke)
	}
}

func TestLinuxRunnableCount(t *testing.T) {
	eng := sim.NewEngine()
	lp := baseline.NewLinux()
	k := kernel.New(eng, kernel.DefaultConfig(), lp)
	k.Spawn("a", hog(400_000))
	k.Spawn("b", hog(400_000))
	if lp.Runnable() != 2 {
		t.Fatalf("runnable = %d before start", lp.Runnable())
	}
	k.Start()
	eng.RunFor(100 * sim.Millisecond)
	k.Stop()
	if lp.Runnable() != 2 {
		t.Fatalf("runnable = %d with two hogs", lp.Runnable())
	}
}
