package realrate_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	realrate "repro"
)

var updateGoldens = flag.Bool("update", false, "rewrite the observer event golden instead of comparing against it")

// eventLog renders every Observer callback except OnDispatch as one line:
// time, kind, thread name ("-" for none), then the event's fields.
type eventLog struct {
	sb    strings.Builder
	kinds map[string]int
}

func (l *eventLog) line(now time.Duration, kind string, th *realrate.Thread, format string, args ...any) {
	name := "-"
	if th != nil {
		name = th.Name()
	}
	fmt.Fprintf(&l.sb, "%d %s %s", now, kind, name)
	if format != "" {
		l.sb.WriteByte(' ')
		fmt.Fprintf(&l.sb, format, args...)
	}
	l.sb.WriteByte('\n')
	l.kinds[kind]++
}

func errText(err error) string {
	if err == nil {
		return "-"
	}
	return err.Error()
}

func (l *eventLog) OnDispatch(time.Duration, *realrate.Thread, int) {}

func (l *eventLog) OnMigration(now time.Duration, th *realrate.Thread, from, to int) {
	l.line(now, "migration", th, "from=%d to=%d", from, to)
}

func (l *eventLog) OnActuation(now time.Duration, th *realrate.Thread, prop int, period time.Duration) {
	l.line(now, "actuation", th, "prop=%d period=%v", prop, period)
}

func (l *eventLog) OnQuality(ev realrate.QualityEvent) {
	l.line(ev.Time, "quality", ev.Thread, "pressure=%v desired=%d allocated=%d reason=%q",
		ev.Pressure, ev.Desired, ev.Allocated, ev.Reason)
}

func (l *eventLog) OnAdmission(ev realrate.AdmissionEvent) {
	l.line(ev.Time, "admission", ev.Thread, "requested=%d period=%v accepted=%v err=%q",
		ev.Requested, ev.Period, ev.Accepted, errText(ev.Err))
}

func (l *eventLog) OnExit(now time.Duration, th *realrate.Thread) {
	l.line(now, "exit", th, "")
}

func (l *eventLog) OnFault(ev realrate.FaultEvent) {
	l.line(ev.Time, "fault", ev.Thread, "kind=%s cpu=%d detail=%q err=%q",
		ev.Kind, ev.CPU, ev.Detail, errText(ev.Err))
}

func (l *eventLog) OnDegrade(ev realrate.DegradeEvent) {
	l.line(ev.Time, "degrade", ev.Thread, "from=%s to=%s reason=%q", ev.From, ev.To, ev.Reason)
}

func (l *eventLog) OnRecover(ev realrate.RecoverEvent) {
	l.line(ev.Time, "recover", ev.Thread, "from=%s to=%s", ev.From, ev.To)
}

func (l *eventLog) OnOverload(ev realrate.OverloadEvent) {
	l.line(ev.Time, "overload", nil, "from=%s to=%s desired=%d granted=%d capacity=%d",
		ev.From, ev.To, ev.Desired, ev.Granted, ev.Capacity)
}

func (l *eventLog) OnShed(ev realrate.ShedEvent) {
	l.line(ev.Time, "shed", ev.Thread, "class=%s importance=%v rung=%s", ev.Class, ev.Importance, ev.Rung)
}

// TestObserverEventGolden pins the whole controller-to-observer event
// stream of one eventful run byte for byte: every fault kind the
// controller detects, both directions of the degradation ladder, quality
// exceptions, admissions accepted, rejected and throttled, every ladder
// movement of an admission storm, the sheds it orders and the exits they
// cause. Re-bless with `go test -run TestObserverEventGolden -update .`
// (or scripts/goldens.sh -update).
func TestObserverEventGolden(t *testing.T) {
	const path = "testdata/goldens/observer_events.golden"
	ms := time.Millisecond
	sys := realrate.NewSystem(realrate.Config{
		Faults: &realrate.FaultPlan{Seed: 11, Specs: []realrate.FaultSpec{
			{Kind: realrate.FaultFreezeSignal, Target: "frozen", At: 100 * ms, For: 150 * ms},
			{Kind: realrate.FaultBadSignal, Target: "bad", At: 50 * ms, For: 40 * ms, Mag: 0.4},
			{Kind: realrate.FaultDropActuation, Target: "drop", At: 30 * ms, For: 100 * ms},
			{Kind: realrate.FaultDelayActuation, Target: "delay", At: 30 * ms, For: 100 * ms},
			{Kind: realrate.FaultStuckThread, Target: "stuck", At: 200 * ms, For: 20 * ms},
		}},
		Controller: realrate.ControllerTuning{WatchdogIntervals: 5, WatchdogRecovery: 3},
		Overload:   &realrate.OverloadConfig{TripIntervals: 3, RecoverIntervals: 5},
	})
	log := &eventLog{kinds: map[string]int{}}
	sys.Observe(log)
	sys.OnQuality(func(ev realrate.QualityEvent) {
		log.line(ev.Time, "app-quality", ev.Thread, "allocated=%d", ev.Allocated)
	})

	spawn := func(name string, prog realrate.Program, opts ...realrate.SpawnOption) *realrate.Thread {
		th, err := sys.Spawn(name, prog, opts...)
		if err != nil {
			t.Fatalf("spawn %s: %v", name, err)
		}
		return th
	}
	rt := spawn("rt", realrate.HogProgram(50_000), realrate.Reserve(100, 10*ms))
	if _, err := sys.Spawn("huge", realrate.HogProgram(1000), realrate.Reserve(1800, 10*ms)); err == nil {
		t.Fatal("oversized reservation admitted")
	}
	var faulted []*realrate.Thread
	for _, name := range []string{"frozen", "bad", "drop", "delay", "stuck"} {
		faulted = append(faulted, spawn(name, realrate.HogProgram(200_000), realrate.RealRate(10*ms, wavySource{})))
	}
	spawn("pinned", realrate.HogProgram(200_000), realrate.RealRate(10*ms, valueSource{0.5}))
	for i := 0; i < 3; i++ {
		spawn(fmt.Sprintf("misc%d", i), realrate.HogProgram(400_000), realrate.Importance(float64(3-i)))
	}

	// The faulted hogs overload the machine until they are killed; the
	// ladder then unwinds, and an admission storm of best-effort hogs of
	// rising importance trips it again: the tail of the burst is
	// throttled and the least important survivors are shed.
	sys.After(350*ms, func(time.Duration) {
		for _, th := range faulted {
			th.Kill()
		}
	})
	sys.After(600*ms, func(time.Duration) {
		_ = rt.Renegotiate(150)
		for i := 0; i < 12; i++ {
			_, _ = sys.Spawn(fmt.Sprintf("storm%02d", i), realrate.HogProgram(400_000),
				realrate.Miscellaneous(), realrate.Importance(1+float64(i)/4))
		}
	})
	sys.After(900*ms, func(time.Duration) {
		_ = rt.Renegotiate(200)
		_, _ = sys.Spawn("late", realrate.HogProgram(1000), realrate.Miscellaneous())
	})
	sys.Run(1500 * ms)

	for _, kind := range []string{"actuation", "quality", "app-quality", "admission", "exit", "fault", "degrade", "recover", "overload", "shed"} {
		if log.kinds[kind] == 0 {
			t.Errorf("the run raised no %s event; the golden would not pin it", kind)
		}
	}
	got := log.sb.String()
	if *updateGoldens {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("observer events diverged from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("observer events diverged from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
