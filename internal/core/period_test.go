package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/progress"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestPeriodGrowsForTinyProportions exercises the quantization half of the
// §3.3 period heuristic: a real-rate job whose allocation is far below one
// dispatch tick per period should see its period grow so the budget spans
// at least MinBudgetTicks ticks.
func TestPeriodGrowsForTinyProportions(t *testing.T) {
	r := newRig(core.Config{PeriodAdaptation: true})
	q := r.kern.NewQueue("pipe", 1<<20)
	// A trickle producer: the consumer needs only a few ppt.
	prod := &workload.Producer{Queue: q, CyclesPerBlock: 400_000, Rate: workload.ConstantRate(2)}
	cons := &workload.Consumer{Queue: q, BlockBytes: 512, CyclesPerByte: 10}
	pt := r.kern.Spawn("producer", prod)
	ct := r.kern.Spawn("consumer", cons)
	if _, err := r.ctl.AddRealTime(pt, 100, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	r.reg.RegisterQueue(pt, q, progress.Producer)
	r.reg.RegisterQueue(ct, q, progress.Consumer)
	j := r.ctl.AddRealRate(ct, 0) // period 0: adaptable
	r.start()
	r.run(10 * sim.Second)
	r.kern.Stop()

	if j.Period() <= core.DefaultPeriod {
		t.Fatalf("period = %v, want growth beyond the %v default for a tiny allocation",
			j.Period(), core.DefaultPeriod)
	}
	if j.Period() > r.ctl.Config().MaxPeriod {
		t.Fatalf("period %v exceeded MaxPeriod %v", j.Period(), r.ctl.Config().MaxPeriod)
	}
}

// TestPeriodShrinksUnderJitter exercises the jitter half: with a tiny
// buffer, fill-level oscillations per period are huge relative to the
// buffer, so the period must shrink toward MinPeriod.
func TestPeriodShrinksUnderJitter(t *testing.T) {
	r := newRig(core.Config{PeriodAdaptation: true, MaxPeriod: 100 * sim.Millisecond})
	// Tiny queue: a single producer block swings the fill by 40%.
	q := r.kern.NewQueue("pipe", 50_000)
	prod := &workload.Producer{Queue: q, CyclesPerBlock: 400_000, Rate: workload.ConstantRate(50)}
	cons := &workload.Consumer{Queue: q, BlockBytes: 4096, CyclesPerByte: 40}
	pt := r.kern.Spawn("producer", prod)
	ct := r.kern.Spawn("consumer", cons)
	if _, err := r.ctl.AddRealTime(pt, 100, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	r.reg.RegisterQueue(pt, q, progress.Producer)
	r.reg.RegisterQueue(ct, q, progress.Consumer)
	j := r.ctl.AddRealRate(ct, 0)
	r.start()
	r.run(10 * sim.Second)
	r.kern.Stop()

	if j.Period() >= core.DefaultPeriod {
		t.Fatalf("period = %v under heavy jitter, want shrink below the %v default",
			j.Period(), core.DefaultPeriod)
	}
	if j.Period() < core.MinPeriod {
		t.Fatalf("period %v below MinPeriod", j.Period())
	}
}

// TestPeriodPinnedWhenSpecified: a real-rate job that supplied its own
// period must never be adapted, even with adaptation enabled.
func TestPeriodPinnedWhenSpecified(t *testing.T) {
	r := newRig(core.Config{PeriodAdaptation: true})
	q := r.kern.NewQueue("pipe", 50_000)
	prod := &workload.Producer{Queue: q, CyclesPerBlock: 400_000, Rate: workload.ConstantRate(2)}
	cons := &workload.Consumer{Queue: q, BlockBytes: 512, CyclesPerByte: 10}
	pt := r.kern.Spawn("producer", prod)
	ct := r.kern.Spawn("consumer", cons)
	if _, err := r.ctl.AddRealTime(pt, 100, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	r.reg.RegisterQueue(pt, q, progress.Producer)
	r.reg.RegisterQueue(ct, q, progress.Consumer)
	j := r.ctl.AddRealRate(ct, 20*sim.Millisecond)
	r.start()
	r.run(5 * sim.Second)
	r.kern.Stop()
	if j.Period() != 20*sim.Millisecond {
		t.Fatalf("pinned period changed to %v", j.Period())
	}
}

// TestPeriodStaticWithoutAdaptation: the paper disabled the heuristic in
// its experiments; off must mean off.
func TestPeriodStaticWithoutAdaptation(t *testing.T) {
	r := newRig(core.Config{})
	q := r.kern.NewQueue("pipe", 1<<20)
	prod := &workload.Producer{Queue: q, CyclesPerBlock: 400_000, Rate: workload.ConstantRate(2)}
	cons := &workload.Consumer{Queue: q, BlockBytes: 512, CyclesPerByte: 10}
	pt := r.kern.Spawn("producer", prod)
	ct := r.kern.Spawn("consumer", cons)
	if _, err := r.ctl.AddRealTime(pt, 100, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	r.reg.RegisterQueue(pt, q, progress.Producer)
	r.reg.RegisterQueue(ct, q, progress.Consumer)
	j := r.ctl.AddRealRate(ct, 0)
	r.start()
	r.run(5 * sim.Second)
	r.kern.Stop()
	if j.Period() != core.DefaultPeriod {
		t.Fatalf("period changed to %v with adaptation disabled", j.Period())
	}
}
