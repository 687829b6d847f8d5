package core_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/overload"
	"repro/internal/sim"
	"repro/internal/workload"
)

// saturatedSignals is a sample far over any trip band.
func saturatedSignals() overload.Signals {
	return overload.Signals{Desired: 5000, Granted: 850, Capacity: 900}
}

// governorAt walks a fresh fast-tripping governor to the requested rung.
func governorAt(r overload.Rung) *overload.Governor {
	g := overload.New(overload.Config{TripIntervals: 1, RecoverIntervals: 1 << 20})
	for g.Rung() < r {
		g.Observe(saturatedSignals())
	}
	return g
}

// TestRenegotiateRefusedForWatchdogManagedJobs is the
// watchdog-across-Renegotiate audit, pinned as a regression test: the
// renegotiation path only accepts reservation-holding classes, and the
// watchdog only manages real-rate jobs — the two never overlap. A
// demoted real-rate job must not be renegotiable, because Renegotiate
// overwrites desired/allocated wholesale and would silently clobber the
// ladder's fallback bookkeeping.
func TestRenegotiateRefusedForWatchdogManagedJobs(t *testing.T) {
	r := newRig(core.Config{WatchdogIntervals: 5, WatchdogRecovery: 3})
	th := r.kern.Spawn("stage", &workload.Hog{Burst: 400_000})
	m := &scriptedMetric{}
	r.reg.Register(th, m)
	j := r.ctl.AddRealRate(th, 10*sim.Millisecond)

	recovers := 0
	r.ctl.Subscribe(core.SinkFunc(func(core.Event) { recovers++ }), core.EventRecover)

	// Flat signal long enough for the watchdog to demote twice.
	r.start()
	r.run(sim.Second)
	if j.Degraded() != core.LevelMisc {
		t.Fatalf("setup: rung %v, want misc", j.Degraded())
	}
	allocBefore := j.Allocated()

	if err := r.ctl.Renegotiate(j, 500); err == nil {
		t.Fatal("renegotiation of a watchdog-managed real-rate job accepted")
	}
	if j.Degraded() != core.LevelMisc {
		t.Fatalf("refused renegotiation moved the ladder to %v", j.Degraded())
	}
	if j.Allocated() != allocBefore {
		t.Fatalf("refused renegotiation changed the allocation %d -> %d", allocBefore, j.Allocated())
	}
	if recovers != 0 {
		t.Fatalf("refused renegotiation fired %d recover events", recovers)
	}
	r.kern.Stop()
}

// TestRenegotiateLeavesWatchdogStateIntact renegotiates a real-time job
// while a real-rate sibling sits demoted: the admission-book update must
// not disturb the sibling's rung, and the sibling must still climb back
// once its signal livens.
func TestRenegotiateLeavesWatchdogStateIntact(t *testing.T) {
	r := newRig(core.Config{WatchdogIntervals: 5, WatchdogRecovery: 3})
	rt := r.kern.Spawn("rt", &workload.Hog{Burst: 400_000})
	jr, err := r.ctl.AddRealTime(rt, 100, 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	th := r.kern.Spawn("stage", &workload.Hog{Burst: 400_000})
	m := &scriptedMetric{}
	r.reg.Register(th, m)
	j := r.ctl.AddRealRate(th, 10*sim.Millisecond)

	r.start()
	r.run(sim.Second)
	if j.Degraded() != core.LevelMisc {
		t.Fatalf("setup: rung %v, want misc", j.Degraded())
	}
	degradationsBefore := r.ctl.Health().Degradations

	if err := r.ctl.Renegotiate(jr, 300); err != nil {
		t.Fatalf("renegotiation within capacity rejected: %v", err)
	}
	r.run(100 * sim.Millisecond)
	if j.Degraded() != core.LevelMisc {
		t.Fatalf("renegotiating the rt job moved the sibling's ladder to %v", j.Degraded())
	}
	if h := r.ctl.Health(); h.Degradations != degradationsBefore {
		t.Fatalf("renegotiation changed the degradation count %d -> %d",
			degradationsBefore, h.Degradations)
	}

	// The sibling's recovery is unaffected by the renegotiated books.
	m.vary = true
	r.run(sim.Second)
	r.kern.Stop()
	if j.Degraded() != core.LevelRealRate {
		t.Fatalf("after recovery: rung %v, want real-rate", j.Degraded())
	}
	if jr.Allocated() != 300 {
		t.Fatalf("rt job allocated %d, want the renegotiated 300", jr.Allocated())
	}
}

// TestFreezeRungRefusesGrowthAdmitsShrink pins the freeze semantics:
// renegotiations to larger reservations bounce with a typed
// *core.OverloadError carrying a positive retry-after, shrinking is
// still welcome, and the throttle counter tracks the refusals.
func TestFreezeRungRefusesGrowthAdmitsShrink(t *testing.T) {
	r := newRig(core.Config{})
	th := r.kern.Spawn("rt", &workload.Hog{Burst: 400_000})
	j, err := r.ctl.AddRealTime(th, 200, 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	r.ctl.SetGovernor(governorAt(overload.Freeze))

	err = r.ctl.Renegotiate(j, 400)
	var oe *core.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("growth under freeze: error %T (%v), want *core.OverloadError", err, err)
	}
	if oe.Rung != "freeze" || oe.RetryAfter <= 0 {
		t.Fatalf("overload error = %+v, want rung freeze and positive retry-after", oe)
	}
	if j.Allocated() != 200 {
		t.Fatalf("refused growth changed the allocation to %d", j.Allocated())
	}
	if h := r.ctl.Health(); h.Throttled != 1 {
		t.Fatalf("Throttled = %d, want 1", h.Throttled)
	}

	if err := r.ctl.Renegotiate(j, 100); err != nil {
		t.Fatalf("shrink under freeze rejected: %v", err)
	}
	if j.Allocated() != 100 {
		t.Fatalf("shrink did not apply: allocated %d", j.Allocated())
	}
}

// TestAdmissionVetoFollowsRung pins the backpressure boundary: no veto at
// normal, typed veto with retry-after from throttle up.
func TestAdmissionVetoFollowsRung(t *testing.T) {
	r := newRig(core.Config{})
	if err := r.ctl.AdmissionVeto(); err != nil {
		t.Fatalf("veto without a governor: %v", err)
	}
	r.ctl.SetGovernor(governorAt(overload.Normal))
	if err := r.ctl.AdmissionVeto(); err != nil {
		t.Fatalf("veto at normal rung: %v", err)
	}
	r.ctl.SetGovernor(governorAt(overload.Throttle))
	err := r.ctl.AdmissionVeto()
	var oe *core.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("veto at throttle: error %T (%v), want *core.OverloadError", err, err)
	}
	if oe.Rung != "throttle" || oe.RetryAfter <= 0 {
		t.Fatalf("overload error = %+v", oe)
	}
	if h := r.ctl.Health(); h.Throttled == 0 {
		t.Fatal("veto did not count as throttled")
	}
}

// TestGovernorShedsInImportanceOrder drives the controller with more
// miscellaneous demand than the machine and a governor pinned past the
// shed rung: victims must fall in ascending importance order, and the
// reservation-holding job must never be touched.
func TestGovernorShedsInImportanceOrder(t *testing.T) {
	r := newRig(core.Config{})
	rt := r.kern.Spawn("rt", &workload.Hog{Burst: 400_000})
	if _, err := r.ctl.AddRealTime(rt, 200, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	imps := map[string]float64{"m0": 3, "m1": 1, "m2": 2}
	miscThreads := map[string]*kernel.Thread{}
	for name, imp := range imps {
		th := r.kern.Spawn(name, &workload.Hog{Burst: 400_000})
		j := r.ctl.AddMiscellaneous(th)
		r.ctl.SetImportance(j, imp)
		miscThreads[name] = th
	}
	r.ctl.SetGovernor(governorAt(overload.Shed))
	var shedOrder []string
	r.ctl.Subscribe(core.SinkFunc(func(ev core.Event) {
		shedOrder = append(shedOrder, ev.Job.Thread().Name())
	}), core.EventShed)

	r.start()
	r.run(sim.Second)
	r.kern.Stop()

	// Three busy hogs desire ~2400 ppt of a 900 ppt machine: the governor
	// sheds in ascending importance until demand clears the recovery
	// band. With m1 and m2 gone the remaining ~1050 ppt fits under the
	// band, so the highest-importance hog survives — shedding is a
	// low-water mark, not a purge.
	want := []string{"m1", "m2"}
	if len(shedOrder) != len(want) {
		t.Fatalf("shed %v, want %v", shedOrder, want)
	}
	for i := range want {
		if shedOrder[i] != want[i] {
			t.Fatalf("shed order %v, want %v", shedOrder, want)
		}
	}
	if miscThreads["m0"].State() == kernel.StateExited {
		t.Fatal("highest-importance hog was shed below the recovery band")
	}
	if rt.State() == kernel.StateExited {
		t.Fatal("reservation-holding thread was shed")
	}
	if h := r.ctl.Health(); h.Sheds != 2 {
		t.Fatalf("Sheds = %d, want 2", h.Sheds)
	}
}
