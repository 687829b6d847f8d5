package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// stepRig builds a machine over n sleepy miscellaneous jobs under the
// default control plane (one periodic shard) and warms it up, so that
// per-epoch state (scratch buffers, converged allocations) is in steady
// state before measurement. The modeled controller cost is collapsed so
// that every control interval holds exactly one epoch at every n: the
// Figure 5 calibration (2640 cycles per job) cannot sweep 1000 jobs inside
// the shard's 0.5 ms budget per interval.
func stepRig(n int) *rig {
	r := newRig(core.Config{BaseCost: 100, PerJobCost: 1})
	op := kernel.OpSleep{D: 50 * sim.Millisecond}
	prog := kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op { return &op })
	for i := 0; i < n; i++ {
		r.ctl.AddMiscellaneous(r.kern.Spawn("dummy", prog))
	}
	r.start()
	r.run(sim.Second)
	return r
}

// epoch runs the machine for one control interval and checks that it held
// exactly one control epoch.
func (r *rig) epoch(tb testing.TB) {
	before := r.plane.Epoch()
	r.run(r.ctl.Config().Interval)
	if got := r.plane.Epoch() - before; got != 1 {
		tb.Fatalf("one control interval ran %d epochs, want 1", got)
	}
}

// TestControllerStepZeroAlloc asserts the acceptance criterion of the
// allocation-free actuation path: after warm-up, a control interval over
// miscellaneous jobs — the plane's epoch and the machine's dispatching
// alike — performs zero heap allocations. (Only real-rate jobs may
// allocate in steady state, when their pressure series grows its backing
// array.)
func TestControllerStepZeroAlloc(t *testing.T) {
	for _, n := range []int{1, 10, 100, 1000} {
		r := stepRig(n)
		if avg := testing.AllocsPerRun(100, func() { r.epoch(t) }); avg != 0 {
			t.Fatalf("n=%d: a control epoch allocates %.1f allocs/op, want 0", n, avg)
		}
	}
}

// TestEventEmissionZeroAlloc pins that the control-event stream is free:
// with a sink subscribed to every kind, an epoch that emits a step and an
// actuation (a renegotiated reservation) allocates nothing — events are
// values, so none escapes to the heap.
func TestEventEmissionZeroAlloc(t *testing.T) {
	r := stepRig(10)
	op := kernel.OpSleep{D: 50 * sim.Millisecond}
	rt := r.kern.Spawn("rt", kernel.ProgramFunc(func(*kernel.Thread, sim.Time) kernel.Op { return &op }))
	j, err := r.ctl.AddRealTime(rt, 100, 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var steps, actuations int
	r.ctl.Subscribe(core.SinkFunc(func(ev core.Event) {
		switch ev.Kind {
		case core.EventStep:
			steps++
		case core.EventActuate:
			actuations++
		}
	}), ^core.EventKind(0))
	prop := 100
	allocs := testing.AllocsPerRun(100, func() {
		prop = 300 - prop
		if err := r.ctl.Renegotiate(j, prop); err != nil {
			t.Fatal(err)
		}
		r.epoch(t)
	})
	if allocs != 0 {
		t.Fatalf("an epoch emitting events allocates %.1f allocs/op, want 0", allocs)
	}
	if steps < 100 || actuations < 100 {
		t.Fatalf("sink saw %d steps and %d actuations over 101 epochs; the emissions were not measured", steps, actuations)
	}
}

// TestControllerStepScalesPastFloorLimit pins the graceful floor
// degradation: with more adaptive jobs than the capacity has ppt for their
// floors, an epoch must squish to a scaled floor instead of panicking (the
// behavior at >170 jobs was once a squish panic).
func TestControllerStepScalesPastFloorLimit(t *testing.T) {
	r := stepRig(1000)
	r.epoch(t) // must not panic
	total := 0
	for _, j := range r.ctl.Jobs() {
		if a := j.Allocated(); a >= 0 {
			total += a
		}
	}
	if total > r.ctl.EffectiveThreshold() {
		t.Fatalf("allocations sum to %d ppt, above the %d threshold", total, r.ctl.EffectiveThreshold())
	}
}

// TestControllerStepNegativeCapacity pins the overload corner: missed
// deadlines shrink the effective threshold, and once it drops below the
// already-admitted hard reservations the squish capacity is negative. The
// epoch must hand adaptive jobs nothing instead of panicking.
func TestControllerStepNegativeCapacity(t *testing.T) {
	r := newRig(core.Config{})
	op := kernel.OpSleep{D: 50 * sim.Millisecond}
	prog := kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op { return &op })
	rt := r.kern.Spawn("rt", prog)
	misc := r.kern.Spawn("misc", prog)
	r.plane.Start()
	if _, err := r.ctl.AddRealTime(rt, 800, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	r.ctl.AddMiscellaneous(misc)
	r.kern.Start()
	r.run(100 * sim.Millisecond)
	// Misses have driven the threshold below the admitted 800+50 ppt.
	r.ctl.SetEffectiveThreshold(r.ctl.Config().OverloadThreshold / 2)
	r.epoch(t) // must not panic
	j, ok := r.ctl.JobOf(misc)
	if !ok {
		t.Fatal("the adaptive job is no longer controlled")
	}
	if a := j.Allocated(); a != 0 {
		t.Fatalf("adaptive job under negative capacity allocated %d ppt, want 0", a)
	}
}
