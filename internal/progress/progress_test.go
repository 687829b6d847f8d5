package progress_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/kernel"
	"repro/internal/progress"
	"repro/internal/sim"
)

func newQueue(size int64) (*kernel.Kernel, *kernel.Queue, *kernel.Thread) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig(), baseline.NewRoundRobin(0))
	q := k.NewQueue("q", size)
	filler := k.Spawn("filler", kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		return kernel.Exit()
	}))
	return k, q, filler
}

// fillTo drives the queue to an exact fill level via direct produce ops.
func fillTo(t *testing.T, k *kernel.Kernel, q *kernel.Queue, filler *kernel.Thread, bytes int64) {
	t.Helper()
	phase := 0
	prog := kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		phase++
		if phase == 1 && bytes > 0 {
			return kernel.Produce(q, bytes)
		}
		return kernel.Exit()
	})
	th := k.Spawn("fill", prog)
	k.Start()
	k.Engine().RunFor(10 * sim.Millisecond)
	k.Stop()
	if th.State() != kernel.StateExited {
		t.Fatalf("fill helper did not complete (state %v)", th.State())
	}
}

func TestQueueMetricSignConvention(t *testing.T) {
	k, q, filler := newQueue(1000)
	fillTo(t, k, q, filler, 750) // 3/4 full
	now := k.Now()

	cons := progress.QueueMetric{Queue: q, Role: progress.Consumer}
	prod := progress.QueueMetric{Queue: q, Role: progress.Producer}

	// Full-ish queue: consumer behind (positive), producer ahead (negative).
	if p := cons.Pressure(now); math.Abs(p-0.25) > 1e-9 {
		t.Fatalf("consumer pressure at 75%% fill = %v, want +0.25", p)
	}
	if p := prod.Pressure(now); math.Abs(p+0.25) > 1e-9 {
		t.Fatalf("producer pressure at 75%% fill = %v, want -0.25", p)
	}
}

func TestQueueMetricHalfFullIsZero(t *testing.T) {
	k, q, filler := newQueue(1000)
	fillTo(t, k, q, filler, 500)
	now := k.Now()
	cons := progress.QueueMetric{Queue: q, Role: progress.Consumer}
	if p := cons.Pressure(now); p != 0 {
		t.Fatalf("pressure at half full = %v, want 0 (the optimal fill level)", p)
	}
}

func TestQueueMetricBounds(t *testing.T) {
	// Empty queue.
	k, q, _ := newQueue(1000)
	now := k.Now()
	cons := progress.QueueMetric{Queue: q, Role: progress.Consumer}
	prod := progress.QueueMetric{Queue: q, Role: progress.Producer}
	if p := cons.Pressure(now); p != -0.5 {
		t.Fatalf("consumer pressure on empty queue = %v, want -0.5", p)
	}
	if p := prod.Pressure(now); p != 0.5 {
		t.Fatalf("producer pressure on empty queue = %v, want +0.5", p)
	}
}

func TestRoleSign(t *testing.T) {
	if progress.Producer.Sign() != -1 || progress.Consumer.Sign() != 1 {
		t.Fatal("role signs do not match Figure 3's R")
	}
	if progress.Producer.String() != "producer" || progress.Consumer.String() != "consumer" {
		t.Fatal("role names wrong")
	}
}

func TestRegistrySummedPressurePipelineStage(t *testing.T) {
	// A middle pipeline stage consumes queue A (25% full) and produces
	// queue B (25% full): pressures -0.25 (consumer of A... wait) —
	// consumer of A at 25% fill: F=-0.25, R=+1 → -0.25 (running ahead,
	// little input); producer of B at 25% fill: F=-0.25, R=-1 → +0.25
	// (output is draining, should speed up). Net zero.
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig(), baseline.NewRoundRobin(0))
	qa := k.NewQueue("a", 1000)
	qb := k.NewQueue("b", 1000)
	phase := 0
	th := k.Spawn("stage", kernel.ProgramFunc(func(tt *kernel.Thread, now sim.Time) kernel.Op {
		phase++
		switch phase {
		case 1:
			return kernel.Produce(qa, 250)
		case 2:
			return kernel.Produce(qb, 250)
		}
		return kernel.Exit()
	}))
	k.Start()
	eng.RunFor(10 * sim.Millisecond)
	k.Stop()

	reg := progress.NewRegistry()
	reg.RegisterQueue(th, qa, progress.Consumer)
	reg.RegisterQueue(th, qb, progress.Producer)
	if !reg.HasMetrics(th) {
		t.Fatal("HasMetrics = false after registration")
	}
	if got := reg.SummedPressure(th, k.Now()); math.Abs(got) > 1e-9 {
		t.Fatalf("balanced pipeline stage pressure = %v, want 0", got)
	}
}

func TestRegistrySummedPressureClamped(t *testing.T) {
	// Three empty output queues: raw sum +1.5 must clamp to +0.5.
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig(), baseline.NewRoundRobin(0))
	th := k.Spawn("t", kernel.ProgramFunc(func(tt *kernel.Thread, now sim.Time) kernel.Op {
		return kernel.Exit()
	}))
	reg := progress.NewRegistry()
	for i := 0; i < 3; i++ {
		q := k.NewQueue("out", 100)
		reg.RegisterQueue(th, q, progress.Producer)
	}
	if got := reg.SummedPressure(th, k.Now()); got != 0.5 {
		t.Fatalf("clamped pressure = %v, want 0.5", got)
	}
}

func TestRegistryUnregister(t *testing.T) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig(), baseline.NewRoundRobin(0))
	th := k.Spawn("t", kernel.ProgramFunc(func(tt *kernel.Thread, now sim.Time) kernel.Op {
		return kernel.Exit()
	}))
	q := k.NewQueue("q", 100)
	reg := progress.NewRegistry()
	reg.RegisterQueue(th, q, progress.Consumer)
	reg.Unregister(th)
	if reg.HasMetrics(th) {
		t.Fatal("metrics survived Unregister")
	}
	if p := reg.SummedPressure(th, k.Now()); p != 0 {
		t.Fatalf("pressure after unregister = %v", p)
	}
}

func TestVirtualQueueTracksTargetRate(t *testing.T) {
	v := progress.NewVirtualQueue("pi", 100, 1000) // drain 1000 units/s
	t0 := sim.Time(0)
	// Produce exactly at the target rate: fill stays near half, pressure ≈0.
	for i := 1; i <= 100; i++ {
		now := t0.Add(sim.Duration(i) * 10 * sim.Millisecond)
		v.Complete(now, 10) // 10 units per 10ms = 1000/s
	}
	now := t0.Add(sim.Duration(1) * sim.Second)
	if p := v.Pressure(now); math.Abs(p) > 0.06 {
		t.Fatalf("on-rate virtual pressure = %v, want ≈0", p)
	}
}

func TestVirtualQueueFallingBehind(t *testing.T) {
	v := progress.NewVirtualQueue("keys", 100, 1000)
	// No completions for 100ms: 100 units drained, fill 50 -> 0.
	now := sim.Time(100 * sim.Millisecond)
	if p := v.Pressure(now); p != 0.5 {
		t.Fatalf("starved virtual pressure = %v, want +0.5 (needs CPU)", p)
	}
}

func TestVirtualQueueRunningAhead(t *testing.T) {
	v := progress.NewVirtualQueue("keys", 100, 1000)
	v.Complete(sim.Time(sim.Millisecond), 1000) // burst far past the rate
	if p := v.Pressure(sim.Time(2 * sim.Millisecond)); p >= 0 {
		t.Fatalf("ahead-of-rate virtual pressure = %v, want negative", p)
	}
}

func TestVirtualQueueFillBounds(t *testing.T) {
	v := progress.NewVirtualQueue("b", 10, 100)
	v.Complete(sim.Time(sim.Millisecond), 1e9)
	if f := v.FillLevel(sim.Time(2 * sim.Millisecond)); f > 1 {
		t.Fatalf("fill level %v > 1", f)
	}
	if f := v.FillLevel(sim.Time(10 * sim.Second)); f < 0 {
		t.Fatalf("fill level %v < 0", f)
	}
}

// Property: for any fill level, consumer and producer pressures are exact
// negations and both lie in [-1/2, +1/2] — Figure 3's R and F invariants.
func TestPropertyPressureAntisymmetricAndBounded(t *testing.T) {
	f := func(fillPct uint8) bool {
		size := int64(1000)
		fill := int64(fillPct) % 1001
		eng := sim.NewEngine()
		k := kernel.New(eng, kernel.DefaultConfig(), baseline.NewRoundRobin(0))
		q := k.NewQueue("q", size)
		phase := 0
		k.Spawn("f", kernel.ProgramFunc(func(tt *kernel.Thread, now sim.Time) kernel.Op {
			phase++
			if phase == 1 && fill > 0 {
				return kernel.Produce(q, fill)
			}
			return kernel.Exit()
		}))
		k.Start()
		eng.RunFor(10 * sim.Millisecond)
		k.Stop()
		now := k.Now()
		pc := progress.QueueMetric{Queue: q, Role: progress.Consumer}.Pressure(now)
		pp := progress.QueueMetric{Queue: q, Role: progress.Producer}.Pressure(now)
		return math.Abs(pc+pp) < 1e-12 && pc >= -0.5 && pc <= 0.5 && pp >= -0.5 && pp <= 0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
