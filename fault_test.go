package realrate_test

import (
	"math"
	"testing"
	"time"

	realrate "repro"
)

// valueSource is a ProgressSource returning a fixed value — including the
// hostile ones user code can produce.
type valueSource struct{ v float64 }

func (s valueSource) Pressure(now time.Duration) float64 { return s.v }
func (s valueSource) Describe() string                   { return "value" }

// wavySource is a well-behaved source whose pressure varies sample to
// sample inside the healthy band — flat only if something freezes it.
type wavySource struct{}

func (wavySource) Pressure(now time.Duration) float64 {
	return 0.1 + float64((now/time.Millisecond)%17)/200
}
func (wavySource) Describe() string { return "wavy" }

// TestCustomSourceSanitized is the table-driven hardening test for the
// custom-ProgressSource adapter: NaN and ±Inf never reach the controller
// (counted into Health instead), out-of-range finite values are clamped,
// and in-range values pass through without a rejection.
func TestCustomSourceSanitized(t *testing.T) {
	cases := []struct {
		name    string
		v       float64
		rejects bool
	}{
		{"nan", math.NaN(), true},
		{"+inf", math.Inf(1), true},
		{"-inf", math.Inf(-1), true},
		{"above range", 2.5, false},
		{"below range", -2.5, false},
		{"in range", 0.3, false},
		{"negative in range", -0.3, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := realrate.NewSystem(realrate.Config{})
			th, err := sys.Spawn("stage", realrate.HogProgram(400_000),
				realrate.RealRate(10*time.Millisecond, valueSource{tc.v}))
			if err != nil {
				t.Fatal(err)
			}
			sys.Run(300 * time.Millisecond)
			if p := th.Pressure(); math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("non-finite pressure %v escaped the adapter", p)
			}
			h := sys.Health()
			if tc.rejects && h.SignalsRejected == 0 {
				t.Fatalf("hostile source value %v never rejected: %+v", tc.v, h)
			}
			if !tc.rejects && h.SignalsRejected != 0 {
				t.Fatalf("finite source value %v rejected %d times", tc.v, h.SignalsRejected)
			}
			if d := th.Desired(); d < 0 {
				t.Fatalf("desire went negative: %d", d)
			}
		})
	}
}

// ladderObserver records the fault-tolerance event stream of one run.
type ladderObserver struct {
	realrate.NopObserver
	faults   []realrate.FaultEvent
	degrades []realrate.DegradeEvent
	recovers []realrate.RecoverEvent
}

func (o *ladderObserver) OnFault(ev realrate.FaultEvent)     { o.faults = append(o.faults, ev) }
func (o *ladderObserver) OnDegrade(ev realrate.DegradeEvent) { o.degrades = append(o.degrades, ev) }
func (o *ladderObserver) OnRecover(ev realrate.RecoverEvent) { o.recovers = append(o.recovers, ev) }

// TestFreezeFaultWalksLadderEndToEnd is the public-API round trip of the
// tentpole: a scheduled FreezeSignal fault flattens a healthy thread's
// progress signal mid-run, the watchdog demotes it down the ladder (events
// via Observer), the fault clears, and the thread climbs back — leaving a
// Health snapshot that says exactly that.
func TestFreezeFaultWalksLadderEndToEnd(t *testing.T) {
	const (
		faultAt  = 100 * time.Millisecond
		faultFor = 200 * time.Millisecond
	)
	sys := realrate.NewSystem(realrate.Config{
		Faults: &realrate.FaultPlan{Seed: 7, Specs: []realrate.FaultSpec{
			{Kind: realrate.FaultFreezeSignal, Target: "stage", At: faultAt, For: faultFor},
		}},
		Controller: realrate.ControllerTuning{WatchdogIntervals: 5, WatchdogRecovery: 3},
	})
	obs := &ladderObserver{}
	sys.Observe(obs)
	th, err := sys.Spawn("stage", realrate.HogProgram(400_000),
		realrate.RealRate(10*time.Millisecond, wavySource{}))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(600 * time.Millisecond)

	if len(obs.faults) == 0 || obs.faults[0].Kind != "freeze-signal" {
		t.Fatalf("fault events = %+v, want a freeze-signal injection first", obs.faults)
	}
	if obs.faults[0].Thread == nil || obs.faults[0].Thread.Name() != "stage" {
		t.Fatalf("injection not resolved to the target thread: %+v", obs.faults[0])
	}
	if len(obs.degrades) == 0 {
		t.Fatal("frozen signal never demoted the thread")
	}
	if obs.degrades[0].Time < faultAt {
		t.Fatalf("demoted at %v, before the fault window opened at %v", obs.degrades[0].Time, faultAt)
	}
	if obs.degrades[0].From != "real-rate" || obs.degrades[0].To != "fallback" {
		t.Fatalf("first demotion %s -> %s, want real-rate -> fallback",
			obs.degrades[0].From, obs.degrades[0].To)
	}
	if len(obs.recovers) != len(obs.degrades) {
		t.Fatalf("%d recoveries for %d degradations: ladder moves must pair",
			len(obs.recovers), len(obs.degrades))
	}
	last := obs.recovers[len(obs.recovers)-1]
	if last.Time < faultAt+faultFor {
		t.Fatalf("final recovery at %v, before the fault cleared at %v", last.Time, faultAt+faultFor)
	}
	if got := th.Degraded(); got != "real-rate" {
		t.Fatalf("thread finished on rung %q, want real-rate", got)
	}
	h := sys.Health()
	if h.FaultsInjected == 0 {
		t.Fatalf("health recorded no injections: %+v", h)
	}
	if h.Degradations == 0 || h.Degradations != h.Recoveries || h.JobsDegraded != 0 {
		t.Fatalf("health ladder books do not close: %+v", h)
	}
}

// TestFaultPlanZeroWhenUnused pins the zero-cost contract's observable
// half: a run with Config.Faults nil reports an all-zero Health snapshot.
func TestFaultPlanZeroWhenUnused(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	if _, err := sys.Spawn("misc", realrate.HogProgram(400_000)); err != nil {
		t.Fatal(err)
	}
	sys.Run(300 * time.Millisecond)
	if h := sys.Health(); h != (realrate.Health{}) {
		t.Fatalf("healthy run reported non-zero health: %+v", h)
	}
}

// TestFaultEventNamesLowestIDAmongDuplicateNames pins which handle a
// named fault event reports when several live threads share the target
// name: the one with the lowest thread ID, whatever order the kernel
// keeps its live threads in. Killing a thread spawned before the two
// namesakes swaps the younger one ahead of the older in the kernel's
// live list, so a first-match walk would name the wrong thread. Once the
// older namesake exits, a later spec names the younger.
func TestFaultEventNamesLowestIDAmongDuplicateNames(t *testing.T) {
	obs := &ladderObserver{}
	sys := realrate.NewSystem(realrate.Config{Faults: &realrate.FaultPlan{Seed: 1, Specs: []realrate.FaultSpec{
		{Kind: realrate.FaultStuckThread, Target: "dup", At: 20 * time.Millisecond, For: 5 * time.Millisecond},
		{Kind: realrate.FaultStuckThread, Target: "dup", At: 60 * time.Millisecond, For: 5 * time.Millisecond},
	}}})
	sys.Observe(obs)
	spawn := func(name string) *realrate.Thread {
		th, err := sys.Spawn(name, realrate.HogProgram(100_000), realrate.Miscellaneous())
		if err != nil {
			t.Fatal(err)
		}
		return th
	}
	filler := spawn("filler")
	older, younger := spawn("dup"), spawn("dup")
	filler.Kill()
	sys.After(40*time.Millisecond, func(time.Duration) { older.Kill() })
	sys.Run(100 * time.Millisecond)

	var named []*realrate.Thread
	for _, ev := range obs.faults {
		if ev.Kind == "stuck-thread" {
			named = append(named, ev.Thread)
		}
	}
	if len(named) != 2 {
		t.Fatalf("got %d stuck-thread injections, want 2: %+v", len(named), obs.faults)
	}
	if named[0] != older {
		t.Errorf("first injection names %p, want the older namesake %p (lowest thread ID)", named[0], older)
	}
	if named[1] != younger {
		t.Errorf("second injection names %p, want the younger namesake %p (the older one exited)", named[1], younger)
	}
}
