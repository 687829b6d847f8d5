package core_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// scriptedMetric is a progress metric the test steers: constant (flat)
// until vary is set, then wiggling within the healthy pressure band.
type scriptedMetric struct {
	vary bool
}

func (m *scriptedMetric) Pressure(now sim.Time) float64 {
	if !m.vary {
		return 0.2
	}
	return 0.1 + float64(now&0xff)/10000
}

func (m *scriptedMetric) Describe() string { return "scripted" }

// scriptedInjector is a minimal core.FaultInjector the tests toggle.
type scriptedInjector struct {
	nan         bool
	drop, delay bool
}

func (i *scriptedInjector) PerturbPressure(target string, now sim.Time, p float64) float64 {
	if i.nan {
		return nan()
	}
	return p
}

func (i *scriptedInjector) ActuationFault(target string, now sim.Time) (bool, bool) {
	return i.drop, i.delay
}

func nan() float64 { z := 0.0; return z / z }

func TestReservationValidationRejectsNonPositive(t *testing.T) {
	r := newRig(core.Config{})
	th := r.kern.Spawn("rt", &workload.Hog{Burst: 400_000})

	cases := []struct {
		name string
		err  error
	}{
		{"zero proportion", func() error {
			_, err := r.ctl.AddRealTime(th, 0, 10*sim.Millisecond)
			return err
		}()},
		{"negative proportion", func() error {
			_, err := r.ctl.AddRealTime(th, -100, 10*sim.Millisecond)
			return err
		}()},
		{"zero period", func() error {
			_, err := r.ctl.AddRealTime(th, 100, 0)
			return err
		}()},
		{"negative period", func() error {
			_, err := r.ctl.AddRealTime(th, 100, -sim.Millisecond)
			return err
		}()},
		{"aperiodic zero proportion", func() error {
			_, err := r.ctl.AddAperiodicRealTime(th, 0)
			return err
		}()},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		var re *core.ReservationError
		if !errors.As(tc.err, &re) {
			t.Errorf("%s: error type %T, want *core.ReservationError", tc.name, tc.err)
		}
		if tc.err.Error() == "" {
			t.Errorf("%s: empty error string", tc.name)
		}
	}

	// A valid reservation still admits, and renegotiating it to a
	// non-positive proportion is refused without touching the admission
	// books.
	j, err := r.ctl.AddRealTime(th, 200, 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ctl.Renegotiate(j, 0); err == nil {
		t.Fatal("renegotiate to 0 ppt accepted")
	} else {
		var re *core.ReservationError
		if !errors.As(err, &re) {
			t.Fatalf("renegotiate error type %T, want *core.ReservationError", err)
		}
	}
	if j.Allocated() != 200 {
		t.Fatalf("rejected renegotiation changed the allocation to %d", j.Allocated())
	}
}

func TestWatchdogWalksLadderAndRecovers(t *testing.T) {
	r := newRig(core.Config{WatchdogIntervals: 5, WatchdogRecovery: 3})
	th := r.kern.Spawn("stage", &workload.Hog{Burst: 400_000})
	m := &scriptedMetric{}
	r.reg.Register(th, m)
	j := r.ctl.AddRealRate(th, 10*sim.Millisecond)

	var degrades, recovers []core.Event
	r.ctl.Subscribe(core.SinkFunc(func(ev core.Event) {
		if ev.Kind == core.EventDegrade {
			degrades = append(degrades, ev)
		} else {
			recovers = append(recovers, ev)
		}
	}), core.EventDegrade|core.EventRecover)
	step := func(ev core.Event) [2]core.DegradeLevel {
		return [2]core.DegradeLevel{core.DegradeLevel(ev.From), core.DegradeLevel(ev.To)}
	}

	// Phase 1: a bit-flat mid-range signal while the thread burns CPU —
	// the watchdog must demote real-rate → fallback → misc and stop there.
	r.start()
	r.run(sim.Second)
	if j.Degraded() != core.LevelMisc {
		t.Fatalf("after 1s of flat signal: rung %v, want misc", j.Degraded())
	}
	if len(degrades) != 2 {
		t.Fatalf("degrade events = %d, want 2 (fallback, then misc)", len(degrades))
	}
	if step(degrades[0]) != [2]core.DegradeLevel{core.LevelRealRate, core.LevelFallback} ||
		step(degrades[1]) != [2]core.DegradeLevel{core.LevelFallback, core.LevelMisc} {
		t.Fatalf("ladder walked %v then %v", step(degrades[0]), step(degrades[1]))
	}
	h := r.ctl.Health()
	if h.Degradations != 2 || h.JobsDegraded != 1 {
		t.Fatalf("health mid-fault = %+v", h)
	}

	// Phase 2: the signal livens; the job must climb back to the healthy
	// rung, with every recovery pairing a demotion.
	m.vary = true
	r.run(sim.Second)
	r.kern.Stop()
	if j.Degraded() != core.LevelRealRate {
		t.Fatalf("after recovery: rung %v, want real-rate", j.Degraded())
	}
	if len(recovers) != 2 {
		t.Fatalf("recover events = %d, want 2", len(recovers))
	}
	h = r.ctl.Health()
	if h.Recoveries != 2 || h.JobsDegraded != 0 {
		t.Fatalf("health after recovery = %+v", h)
	}
}

func TestWatchdogDisabledByNegativeIntervals(t *testing.T) {
	r := newRig(core.Config{WatchdogIntervals: -1})
	th := r.kern.Spawn("stage", &workload.Hog{Burst: 400_000})
	r.reg.Register(th, &scriptedMetric{})
	j := r.ctl.AddRealRate(th, 10*sim.Millisecond)
	r.start()
	r.run(2 * sim.Second)
	r.kern.Stop()
	if j.Degraded() != core.LevelRealRate {
		t.Fatalf("disabled watchdog demoted to %v", j.Degraded())
	}
	if h := r.ctl.Health(); h.Degradations != 0 {
		t.Fatalf("disabled watchdog recorded %d degradations", h.Degradations)
	}
}

func TestRejectedSignalHoldsDesireAndCounts(t *testing.T) {
	// NaN pressure at the controller boundary: the sample is rejected and
	// counted, the estimator's desire is held (anti-windup), and the
	// typed fault reaches the OnFault hook. The watchdog is disabled to
	// isolate the sanitizer.
	r := newRig(core.Config{WatchdogIntervals: -1})
	th := r.kern.Spawn("stage", &workload.Hog{Burst: 400_000})
	m := &scriptedMetric{vary: true}
	r.reg.Register(th, m)
	j := r.ctl.AddRealRate(th, 10*sim.Millisecond)
	inj := &scriptedInjector{}
	r.ctl.SetFaults(inj)
	var kinds []string
	r.ctl.Subscribe(core.SinkFunc(func(ev core.Event) { kinds = append(kinds, ev.Kind.String()) }), core.EventFaults)

	r.start()
	r.run(sim.Second)
	if len(kinds) != 0 {
		t.Fatalf("healthy run raised faults: %v", kinds)
	}
	held := j.Desired()
	inj.nan = true
	r.run(500 * sim.Millisecond)
	r.kern.Stop()
	if j.Desired() != held {
		t.Fatalf("desire moved %d -> %d while every sample was NaN", held, j.Desired())
	}
	h := r.ctl.Health()
	if h.SignalsRejected == 0 {
		t.Fatal("no rejected signals counted")
	}
	if len(kinds) == 0 || kinds[0] != "signal-rejected" {
		t.Fatalf("fault kinds = %v, want signal-rejected events", kinds)
	}
}

func TestActuationFaultsDropDelayAndRecover(t *testing.T) {
	r := newRig(core.Config{})
	th := r.kern.Spawn("misc", &workload.Hog{Burst: 400_000})
	j := r.ctl.AddMiscellaneous(th)
	inj := &scriptedInjector{}
	r.ctl.SetFaults(inj)
	kinds := map[string]int{}
	r.ctl.Subscribe(core.SinkFunc(func(ev core.Event) { kinds[ev.Kind.String()]++ }), core.EventFaults)

	r.start()
	// Dropped actuations: the dispatcher never sees the controller's
	// pushes, the counters climb, nothing panics.
	inj.drop = true
	r.run(500 * sim.Millisecond)
	if h := r.ctl.Health(); h.ActuationsDropped == 0 {
		t.Fatalf("no dropped actuations counted: %+v", h)
	}
	if kinds["actuation-dropped"] == 0 {
		t.Fatal("no actuation-dropped fault events")
	}

	// Delayed actuations: deferred one control interval, then applied.
	inj.drop, inj.delay = false, true
	r.run(500 * sim.Millisecond)
	if h := r.ctl.Health(); h.ActuationsDelayed == 0 {
		t.Fatalf("no delayed actuations counted: %+v", h)
	}
	if kinds["actuation-delayed"] == 0 {
		t.Fatal("no actuation-delayed fault events")
	}

	// Faults off: the controller keeps controlling — the lone misc job
	// still grows to a large allocation.
	inj.delay = false
	r.run(4 * sim.Second)
	r.kern.Stop()
	if j.Allocated() < 500 {
		t.Fatalf("post-fault allocation = %d ppt; controller did not recover", j.Allocated())
	}
}
