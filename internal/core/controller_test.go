package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/progress"
	"repro/internal/rbs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// rig is a full machine: kernel + RBS dispatcher + registry + controller,
// driven by the default control plane (one periodic shard).
type rig struct {
	eng    *sim.Engine
	kern   *kernel.Kernel
	policy *rbs.Policy
	reg    *progress.Registry
	ctl    *core.Controller
	plane  *ctlplane.Plane
}

func newRig(cfg core.Config) *rig {
	eng := sim.NewEngine()
	policy := rbs.New()
	kern := kernel.New(eng, kernel.DefaultConfig(), policy)
	reg := progress.NewRegistry()
	ctl := core.New(kern, policy, reg, cfg)
	plane := ctlplane.New(ctl, kern, policy, reg, ctlplane.Config{})
	return &rig{eng: eng, kern: kern, policy: policy, reg: reg, ctl: ctl, plane: plane}
}

func (r *rig) run(d sim.Duration) {
	r.eng.RunFor(d)
}

func (r *rig) start() {
	r.plane.Start()
	r.kern.Start()
}

func TestControllerRunsAtConfiguredRate(t *testing.T) {
	r := newRig(core.Config{})
	r.start()
	r.run(sim.Second)
	r.kern.Stop()
	// 100 Hz for 1s ≈ 100 steps.
	if s := r.ctl.Steps(); s < 95 || s > 105 {
		t.Fatalf("controller steps = %d, want ≈100", s)
	}
}

func TestRealTimeJobReservationHonored(t *testing.T) {
	r := newRig(core.Config{})
	th := r.kern.Spawn("rt", &workload.Hog{Burst: 400_000})
	if _, err := r.ctl.AddRealTime(th, 300, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	r.start()
	r.run(5 * sim.Second)
	r.kern.Stop()
	got := th.CPUTime().Seconds() / 5
	if got < 0.29 || got > 0.36 {
		t.Fatalf("real-time job share = %.3f, want ≈0.30", got)
	}
}

func TestAdmissionControlRejectsOverSubscription(t *testing.T) {
	r := newRig(core.Config{})
	a := r.kern.Spawn("a", &workload.Hog{})
	b := r.kern.Spawn("b", &workload.Hog{})
	if _, err := r.ctl.AddRealTime(a, 600, 10*sim.Millisecond); err != nil {
		t.Fatalf("first reservation rejected: %v", err)
	}
	_, err := r.ctl.AddRealTime(b, 400, 10*sim.Millisecond)
	if err == nil {
		t.Fatal("oversubscribing reservation accepted")
	}
	if _, ok := err.(*core.AdmissionError); !ok {
		t.Fatalf("error type = %T, want *core.AdmissionError", err)
	}
	// A smaller request must fit.
	if _, err := r.ctl.AddRealTime(b, 200, 10*sim.Millisecond); err != nil {
		t.Fatalf("fitting reservation rejected: %v", err)
	}
}

func TestMiscellaneousJobGrowsUntilSatisfied(t *testing.T) {
	// A lone miscellaneous hog should ramp up to a large allocation
	// (constant pressure, nothing competing).
	r := newRig(core.Config{})
	th := r.kern.Spawn("misc", &workload.Hog{Burst: 400_000})
	j := r.ctl.AddMiscellaneous(th)
	r.start()
	r.run(5 * sim.Second)
	r.kern.Stop()
	if j.Allocated() < 500 {
		t.Fatalf("lone misc job allocation = %d ppt, want to grow large", j.Allocated())
	}
	// And it should actually receive the CPU.
	if th.CPUTime().Seconds()/5 < 0.5 {
		t.Fatalf("misc job CPU share = %.3f", th.CPUTime().Seconds()/5)
	}
}

func TestTwoMiscJobsConvergeToEqualShares(t *testing.T) {
	// §3.3: "In the absence of other information, this policy results in
	// equal allocation of the CPU to all competing jobs over time."
	r := newRig(core.Config{})
	a := r.kern.Spawn("misc-a", &workload.Hog{Burst: 400_000})
	b := r.kern.Spawn("misc-b", &workload.Hog{Burst: 400_000})
	r.ctl.AddMiscellaneous(a)
	r.ctl.AddMiscellaneous(b)
	r.start()
	r.run(10 * sim.Second)
	r.kern.Stop()
	sa := a.CPUTime().Seconds()
	sb := b.CPUTime().Seconds()
	ratio := sa / sb
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("misc jobs split %.2fs/%.2fs, want ≈equal", sa, sb)
	}
}

func TestImportanceWeightsShares(t *testing.T) {
	// Weighted fair share: "For two jobs that both desire more than the
	// available CPU, the more important job will end up with the higher
	// percentage", but no starvation.
	r := newRig(core.Config{})
	hi := r.kern.Spawn("important", &workload.Hog{Burst: 400_000})
	lo := r.kern.Spawn("unimportant", &workload.Hog{Burst: 400_000})
	jh := r.ctl.AddMiscellaneous(hi)
	jl := r.ctl.AddMiscellaneous(lo)
	r.ctl.SetImportance(jh, 4)
	r.ctl.SetImportance(jl, 1)
	r.start()
	r.run(10 * sim.Second)
	r.kern.Stop()
	sh := hi.CPUTime().Seconds()
	sl := lo.CPUTime().Seconds()
	if sh <= sl*1.3 {
		t.Fatalf("importance had no effect: important %.2fs vs unimportant %.2fs", sh, sl)
	}
	if sl < 0.5 {
		t.Fatalf("unimportant job starved: %.2fs of CPU in 10s", sl)
	}
}

// buildPipeline wires the Figure 6 pulse pipeline: a reserved producer at a
// fixed rate and a controlled real-rate consumer.
//
// Calibration (400 MHz clock): the producer at 100 ppt runs 40M cycles/s,
// looping 400k cycles per block, so 100 blocks/s; at the base rate of 50
// bytes/Kcycle each block is 20 kB, i.e. ≈2 MB/s of data. A consumer cost
// of 40 cycles/byte then needs 80M cycles/s = 200 ppt at the base rate and
// 400 ppt when the producer's rate doubles.
func buildPipeline(r *rig, qSize int64, prodProp int, rate workload.RateFunc, cyclesPerByte float64) (*kernel.Queue, *kernel.Thread, *kernel.Thread) {
	q := r.kern.NewQueue("pipe", qSize)
	prod := &workload.Producer{Queue: q, CyclesPerBlock: 400_000, Rate: rate}
	cons := &workload.Consumer{Queue: q, BlockBytes: 4096, CyclesPerByte: cyclesPerByte}
	pt := r.kern.Spawn("producer", prod)
	ct := r.kern.Spawn("consumer", cons)
	if _, err := r.ctl.AddRealTime(pt, prodProp, 10*sim.Millisecond); err != nil {
		panic(err)
	}
	r.reg.RegisterQueue(pt, q, progress.Producer)
	r.reg.RegisterQueue(ct, q, progress.Consumer)
	r.ctl.AddRealRate(ct, 10*sim.Millisecond)
	return q, pt, ct
}

func TestRealRateConsumerTracksProducer(t *testing.T) {
	// Steady state: producer at a fixed reservation and rate; the
	// controller must find the consumer allocation that balances the
	// queue near half-full and matches throughput.
	r := newRig(core.Config{})
	q, pt, ct := buildPipeline(r, 1<<20, 100, workload.ConstantRate(50), 40)
	_ = pt
	r.start()
	r.run(10 * sim.Second)
	r.kern.Stop()

	if err := q.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	// Throughput match: consumed ≈ produced (queue holds the rest).
	if q.Consumed() < q.Produced()*8/10 {
		t.Fatalf("consumer lagging: consumed %d of %d produced", q.Consumed(), q.Produced())
	}
	// Fill should settle near half.
	fl := q.FillLevel()
	if fl < 0.4 || fl > 0.6 {
		t.Fatalf("fill level settled at %.3f, want ≈0.5", fl)
	}
	// Consumer should be near the matched 200 ppt, discovered without any
	// manual configuration.
	j, _ := r.ctl.JobOf(ct)
	if j.Allocated() < 150 || j.Allocated() > 280 {
		t.Fatalf("consumer allocation = %d ppt, want ≈200", j.Allocated())
	}
}

func TestConsumerAllocationDoublesOnRateStep(t *testing.T) {
	// The Figure 6 experiment's core claim: when the producer doubles its
	// rate, the controller doubles the consumer's allocation within
	// roughly a third of a second.
	r := newRig(core.Config{})
	rate := workload.StepSchedule([]workload.Step{
		{At: 0, Rate: 50},
		{At: sim.Time(4 * sim.Second), Rate: 100},
	})
	q, _, ct := buildPipeline(r, 1<<20, 100, rate, 40)

	alloc := metrics.NewSeries("consumer.alloc")
	r.ctl.Subscribe(core.SinkFunc(func(ev core.Event) {
		j, _ := r.ctl.JobOf(ct)
		alloc.Add(ev.Time, float64(j.Allocated()))
	}), core.EventStep)
	r.start()
	r.run(8 * sim.Second)
	r.kern.Stop()

	before := alloc.TimeWeightedMean(sim.Time(3*sim.Second), sim.Time(4*sim.Second))
	after := alloc.TimeWeightedMean(sim.Time(6*sim.Second), sim.Time(8*sim.Second))
	if after < before*1.6 || after > before*2.6 {
		t.Fatalf("allocation before=%.1f after=%.1f, want ≈2x", before, after)
	}
	// Response time: from the step to 90% of the new level.
	resp := metrics.MeasureStep(alloc, sim.Time(4*sim.Second), before, after, sim.Time(8*sim.Second))
	if !resp.Settled {
		t.Fatal("allocation never settled after the rate step")
	}
	if resp.RiseTime > 1500*sim.Millisecond {
		t.Fatalf("rise time = %v, want sub-1.5s (paper: ≈1/3s)", resp.RiseTime)
	}
	if err := q.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestSquishUnderLoadFavorsRealRate(t *testing.T) {
	// Figure 7: with a hog loading the machine, the consumer must still
	// track the producer — the hog loses allocation to the consumer whose
	// pressure grows as it falls behind.
	r := newRig(core.Config{})
	q, _, ct := buildPipeline(r, 1<<20, 100, workload.ConstantRate(50), 40)
	hog := r.kern.Spawn("hog", &workload.Hog{Burst: 400_000})
	r.ctl.AddMiscellaneous(hog)
	r.start()
	r.run(15 * sim.Second)
	r.kern.Stop()

	// Consumer keeps up overall.
	if q.Consumed() < q.Produced()*7/10 {
		t.Fatalf("consumer lagging under load: %d of %d", q.Consumed(), q.Produced())
	}
	// Hog gets the leftover but not zero (no starvation).
	hogShare := hog.CPUTime().Seconds() / 15
	if hogShare < 0.1 {
		t.Fatalf("hog starved: share %.3f", hogShare)
	}
	if hogShare > 0.85 {
		t.Fatalf("hog unhindered: share %.3f", hogShare)
	}
	j, _ := r.ctl.JobOf(ct)
	_ = j
}

func TestReclamationOfUnusedAllocation(t *testing.T) {
	// A consumer whose producer dries up (bottleneck elsewhere) must have
	// its allocation reclaimed: Figure 4's P−C path.
	r := newRig(core.Config{})
	rate := workload.StepSchedule([]workload.Step{
		{At: 0, Rate: 50},
		{At: sim.Time(4 * sim.Second), Rate: 1}, // producer nearly stops
	})
	_, _, ct := buildPipeline(r, 1<<20, 100, rate, 40)
	r.start()
	r.run(4 * sim.Second)
	j, _ := r.ctl.JobOf(ct)
	peak := j.Allocated()
	r.run(6 * sim.Second)
	r.kern.Stop()
	if j.Allocated() >= peak {
		t.Fatalf("allocation not reclaimed: peak %d, now %d", peak, j.Allocated())
	}
	if j.Allocated() > 40 {
		t.Fatalf("idle consumer still holds %d ppt", j.Allocated())
	}
}

func TestNoStarvationInvariant(t *testing.T) {
	// Every live adaptive job keeps at least the floor allocation, even
	// under gross overload.
	r := newRig(core.Config{})
	var jobs []*core.Job
	for i := 0; i < 8; i++ {
		th := r.kern.Spawn("misc", &workload.Hog{Burst: 400_000})
		jobs = append(jobs, r.ctl.AddMiscellaneous(th))
	}
	r.start()
	r.run(5 * sim.Second)
	r.kern.Stop()
	min := r.ctl.Config().MinProportion
	for i, j := range jobs {
		if j.Allocated() < min {
			t.Fatalf("job %d allocated %d < floor %d", i, j.Allocated(), min)
		}
		if j.Thread().CPUTime() == 0 {
			t.Fatalf("job %d starved outright", i)
		}
	}
}

func TestQualityExceptionOnSustainedOverload(t *testing.T) {
	// Producer reserved at a high rate; consumer needs more than the
	// machine has left. The queue pins full, pressure saturates, and the
	// controller must raise a quality exception.
	r := newRig(core.Config{})
	// Consumer needs 400 cycles/byte at 2 MB/s = 800M cycles/s = 2000 ppt:
	// far beyond the machine. The queue pins full while the consumer is
	// squished to what is left.
	q, _, _ := buildPipeline(r, 1<<20, 100, workload.ConstantRate(50), 400)
	raised := 0
	r.ctl.Subscribe(core.SinkFunc(func(core.Event) { raised++ }), core.EventQuality)
	r.start()
	r.run(20 * sim.Second)
	r.kern.Stop()
	if raised == 0 {
		t.Fatalf("no quality exception despite overload (fill=%.2f)", q.FillLevel())
	}
}

func TestJobRemovalOnExit(t *testing.T) {
	r := newRig(core.Config{})
	count := 0
	th := r.kern.Spawn("mortal", kernel.ProgramFunc(func(tt *kernel.Thread, now sim.Time) kernel.Op {
		count++
		if count > 10 {
			return kernel.OpExit{}
		}
		return kernel.OpCompute{Cycles: 100_000}
	}))
	r.ctl.AddMiscellaneous(th)
	r.start()
	r.run(2 * sim.Second)
	r.kern.Stop()
	if len(r.ctl.Jobs()) != 0 {
		t.Fatalf("%d jobs left after thread exit", len(r.ctl.Jobs()))
	}
}

func TestInteractiveJobSizedFromBursts(t *testing.T) {
	r := newRig(core.Config{})
	tty := kernel.NewWaitQueue("tty")
	ij := &workload.InteractiveJob{TTY: tty, Burst: 2_000_000} // 5ms bursts
	it := r.kern.Spawn("editor", ij)
	src := &workload.EventSource{Kernel: r.kern, Target: ij, Interval: 50 * sim.Millisecond}
	st := r.kern.Spawn("user", src)
	r.ctl.AddInteractive(it)
	// The event source models an input device; give it a small real-time
	// reservation with a short period so events are delivered on time
	// (the paper schedules the X server the same way).
	if _, err := r.ctl.AddRealTime(st, 20, 5*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Competing load.
	hog := r.kern.Spawn("hog", &workload.Hog{Burst: 400_000})
	r.ctl.AddMiscellaneous(hog)
	r.start()
	r.run(10 * sim.Second)
	r.kern.Stop()

	if ij.Handled() < 150 {
		t.Fatalf("interactive job handled %d events, want ≈200", ij.Handled())
	}
	j, _ := r.ctl.JobOf(it)
	// 5ms burst per 30ms period with 1.5 headroom ≈ 250 ppt.
	if j.Allocated() < 100 || j.Allocated() > 500 {
		t.Fatalf("interactive allocation = %d ppt, want ≈250", j.Allocated())
	}
}

func TestEffectiveThresholdRecoversToConfigured(t *testing.T) {
	r := newRig(core.Config{})
	r.start()
	r.run(sim.Second)
	r.kern.Stop()
	if r.ctl.EffectiveThreshold() != r.ctl.Config().OverloadThreshold {
		t.Fatalf("effective threshold = %d, want %d on a healthy machine",
			r.ctl.EffectiveThreshold(), r.ctl.Config().OverloadThreshold)
	}
}

// kernelProgramCountdown returns a program that computes n bursts and exits.
func kernelProgramCountdown(counter *int, bursts int) kernel.Program {
	return kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		*counter++
		if *counter > bursts {
			return kernel.OpExit{}
		}
		return kernel.OpCompute{Cycles: 400_000}
	})
}

// TestSMPCapacityGeneralization pins the multi-CPU capacity math: the
// admission ceiling scales to OverloadThreshold × CPUs, no single
// reservation can exceed one CPU's threshold, and the squish hands
// adaptive jobs capacity beyond 1000 ppt in aggregate.
func TestSMPCapacityGeneralization(t *testing.T) {
	eng := sim.NewEngine()
	p := rbs.New()
	cfg := kernel.DefaultConfig()
	cfg.CPUs = 4
	k := kernel.New(eng, cfg, p)
	reg := progress.NewRegistry()
	c := core.New(k, p, reg, core.Config{})
	ctlplane.New(c, k, p, reg, ctlplane.Config{}).Start()

	// Per-thread cap: even with ~3550 ppt available on 4 CPUs, one thread
	// cannot reserve more than one CPU's threshold (900).
	th := k.Spawn("big", &workload.Hog{Burst: 1_000_000})
	if _, err := c.AddRealTime(th, 950, 10*sim.Millisecond); err == nil {
		t.Fatal("a 950 ppt single-thread reservation was admitted on a 4-CPU machine")
	}
	k.Retire(th)

	// Aggregate admission goes far beyond one CPU: 4 × 800 = 3200 ppt of
	// hard reservations fit under the 3600 ceiling (minus the controller's
	// own 50).
	for i := 0; i < 4; i++ {
		th := k.Spawn("rt", &workload.Hog{Burst: 1_000_000})
		if _, err := c.AddRealTime(th, 800, 10*sim.Millisecond); err != nil {
			t.Fatalf("reservation %d rejected: %v", i, err)
		}
	}
	// The next 800 must bounce: 50 + 4×800 + 800 > 3600.
	th2 := k.Spawn("over", &workload.Hog{Burst: 1_000_000})
	if _, err := c.AddRealTime(th2, 800, 10*sim.Millisecond); err == nil {
		t.Fatal("admission exceeded the 4-CPU ceiling")
	}
	k.Retire(th2)

	// Adaptive jobs squish into the leftover capacity, which is still
	// several hundred ppt here — on one CPU it would be negative.
	m := k.Spawn("hog", &workload.Hog{Burst: 1_000_000})
	c.AddMiscellaneous(m)
	k.Start()
	eng.RunFor(2 * sim.Second)
	k.Stop()
	j, _ := c.JobOf(m)
	if j.Allocated() <= 0 {
		t.Fatalf("misc job got %d ppt on a machine with spare capacity", j.Allocated())
	}
	if got := c.EffectiveThreshold(); got > 900*4 {
		t.Fatalf("effective threshold %d exceeds the scaled ceiling %d", got, 900*4)
	}
}
