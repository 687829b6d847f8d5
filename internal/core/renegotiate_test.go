package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/progress"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestRenegotiateGrowWithinCapacity(t *testing.T) {
	r := newRig(core.Config{})
	th := r.kern.Spawn("rt", &workload.Hog{Burst: 400_000})
	j, err := r.ctl.AddRealTime(th, 200, 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	r.start()
	r.run(2 * sim.Second)
	used := th.CPUTime()
	if err := r.ctl.Renegotiate(j, 500); err != nil {
		t.Fatalf("renegotiation within capacity rejected: %v", err)
	}
	r.run(2 * sim.Second)
	r.kern.Stop()
	grew := (th.CPUTime() - used).Seconds() / 2
	if grew < 0.45 {
		t.Fatalf("post-renegotiation share = %.3f, want ≈0.50", grew)
	}
}

// TestRenegotiateExitDuringActuationSkipsEvent reproduces a bug the churn
// harness flushed out: actuating a renegotiation can run the machine —
// SetReservation wakes the napping thread, the wake preempts, and the
// dispatched program may exit — all before the actuation event fires. The
// event for a thread that retired mid-actuation must be suppressed:
// observers are promised nothing fires after retirement.
func TestRenegotiateExitDuringActuationSkipsEvent(t *testing.T) {
	r := newRig(core.Config{})
	exitNow := false
	th := r.kern.Spawn("victim", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		if exitNow {
			return kernel.Exit()
		}
		// Exactly one period's budget (100 ppt of 10 ms at 400 MHz = 1 ms):
		// the burst completes just as the budget empties, so the thread
		// naps at an op boundary and consults its program on wake.
		return kernel.Compute(400_000)
	}))
	j, err := r.ctl.AddRealTime(th, 100, 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	r.kern.Spawn("hog", &workload.Hog{Burst: 400_000}) // keeps the CPU busy
	r.start()
	// Run into the middle of a period: the victim has burned its 1 ms
	// budget and naps until the next period boundary.
	r.run(5500 * sim.Microsecond)
	if got := th.State(); got != kernel.StateSleeping {
		t.Fatalf("victim not napping before renegotiation: %v", got)
	}

	var actuated []*kernel.Thread
	r.ctl.Subscribe(core.SinkFunc(func(ev core.Event) {
		actuated = append(actuated, ev.Job.Thread())
	}), core.EventActuate)
	// Growing the reservation re-arms the budget and wakes the napper; the
	// wake preempts the hog, the victim is dispatched, and its program
	// exits — inside the actuate call.
	exitNow = true
	if err := r.ctl.Renegotiate(j, 300); err != nil {
		t.Fatalf("renegotiation rejected: %v", err)
	}
	if got := th.State(); got != kernel.StateExited {
		t.Fatalf("victim did not exit during actuation: %v (the scenario no longer exercises the race)", got)
	}
	for _, at := range actuated {
		if at.State() == kernel.StateExited {
			t.Fatalf("actuation event fired for retired thread %v", at)
		}
	}
	// The machine stays coherent: the job left at the exit, inside the
	// actuate call, and the freed reservation is admittable again.
	if _, ok := r.ctl.JobOf(th); ok {
		t.Fatal("exited thread's job not torn down")
	}
	nt := r.kern.Spawn("next", &workload.Hog{Burst: 400_000})
	if _, err := r.ctl.AddRealTime(nt, 300, 10*sim.Millisecond); err != nil {
		t.Fatalf("freed reservation not admittable: %v", err)
	}
}

func TestRenegotiateRejectsOverCapacity(t *testing.T) {
	r := newRig(core.Config{})
	a := r.kern.Spawn("a", &workload.Hog{Burst: 400_000})
	b := r.kern.Spawn("b", &workload.Hog{Burst: 400_000})
	ja, err := r.ctl.AddRealTime(a, 400, 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ctl.AddRealTime(b, 400, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	err = r.ctl.Renegotiate(ja, 600)
	if err == nil {
		t.Fatal("oversubscribing renegotiation accepted")
	}
	if _, ok := err.(*core.AdmissionError); !ok {
		t.Fatalf("error type = %T", err)
	}
	// Shrinking must always succeed and free capacity for the other job.
	if err := r.ctl.Renegotiate(ja, 100); err != nil {
		t.Fatalf("shrink rejected: %v", err)
	}
	jb, _ := r.ctl.JobOf(b)
	if err := r.ctl.Renegotiate(jb, 600); err != nil {
		t.Fatalf("grow into freed capacity rejected: %v", err)
	}
}

func TestRenegotiateRejectsAdaptiveJobs(t *testing.T) {
	r := newRig(core.Config{})
	th := r.kern.Spawn("misc", &workload.Hog{Burst: 400_000})
	j := r.ctl.AddMiscellaneous(th)
	if err := r.ctl.Renegotiate(j, 100); err == nil {
		t.Fatal("renegotiating a miscellaneous job should fail")
	}
}

// TestPipelineStagesAutoBalance runs a four-stage pipeline with wildly
// different per-stage costs; every stage is a real-rate job (middle stages
// carry two metrics each, §3.2's "pipelines of threads by pairwise
// comparison") and the controller must find all four allocations.
func TestPipelineStagesAutoBalance(t *testing.T) {
	r := newRig(core.Config{})
	q1 := r.kern.NewQueue("q1", 1<<20)
	q2 := r.kern.NewQueue("q2", 1<<20)
	q3 := r.kern.NewQueue("q3", 1<<20)

	src := &workload.Producer{Queue: q1, CyclesPerBlock: 400_000, Rate: workload.ConstantRate(25)}
	// ≈1 MB/s through the pipeline; per-stage cycles/byte: 80, 20, 40
	// → needs ≈200, 50, 100 ppt.
	s1 := &workload.Stage{In: q1, Out: q2, BlockBytes: 4096, CyclesPerByte: 80}
	s2 := &workload.Stage{In: q2, Out: q3, BlockBytes: 4096, CyclesPerByte: 20}
	sink := &workload.Consumer{Queue: q3, BlockBytes: 4096, CyclesPerByte: 40}

	st := r.kern.Spawn("src", src)
	t1 := r.kern.Spawn("s1", s1)
	t2 := r.kern.Spawn("s2", s2)
	t3 := r.kern.Spawn("sink", sink)

	if _, err := r.ctl.AddRealTime(st, 100, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	r.reg.RegisterQueue(st, q1, progress.Producer)
	r.reg.RegisterQueue(t1, q1, progress.Consumer)
	r.reg.RegisterQueue(t1, q2, progress.Producer)
	r.reg.RegisterQueue(t2, q2, progress.Consumer)
	r.reg.RegisterQueue(t2, q3, progress.Producer)
	r.reg.RegisterQueue(t3, q3, progress.Consumer)
	j1 := r.ctl.AddRealRate(t1, 10*sim.Millisecond)
	j2 := r.ctl.AddRealRate(t2, 10*sim.Millisecond)
	j3 := r.ctl.AddRealRate(t3, 10*sim.Millisecond)

	r.start()
	r.run(15 * sim.Second)
	r.kern.Stop()

	// Data flowed end to end at roughly the source rate.
	if q3.Consumed() < q1.Produced()*7/10 {
		t.Fatalf("pipeline lost throughput: %d in, %d out", q1.Produced(), q3.Consumed())
	}
	// Stage allocations reflect their cost ratios (80:20:40).
	a1, a2, a3 := j1.Allocated(), j2.Allocated(), j3.Allocated()
	if a1 < a3 || a3 < a2 {
		t.Fatalf("allocation order wrong: s1=%d s2=%d sink=%d, want s1 > sink > s2", a1, a2, a3)
	}
	if a1 < 120 || a1 > 350 {
		t.Fatalf("heavy stage allocation = %d, want ≈200", a1)
	}
	for _, q := range []interface{ CheckConservation() error }{q1, q2, q3} {
		if err := q.CheckConservation(); err != nil {
			t.Fatal(err)
		}
	}
}
