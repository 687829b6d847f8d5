package faults

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func ms(n int64) sim.Time        { return sim.Time(n * int64(sim.Millisecond)) }
func msDur(n int64) sim.Duration { return sim.Duration(n * int64(sim.Millisecond)) }

func TestWindowsGateEveryKind(t *testing.T) {
	in := New(1, []Spec{
		{Kind: FreezeSignal, Target: "a", At: ms(10), For: msDur(10)},
		{Kind: TickJitter, At: ms(10), For: msDur(10), Mag: 0.5},
		{Kind: CPUStall, CPU: 1, At: ms(10), For: msDur(10)},
		{Kind: StuckThread, Target: "a", At: ms(10), For: msDur(10)},
		{Kind: DropActuation, Target: "a", At: ms(10), For: msDur(10)},
	}, nil)
	for _, now := range []sim.Time{ms(0), ms(9), ms(20), ms(30)} {
		if got := in.PerturbPressure("a", now, 0.25); got != 0.25 {
			t.Errorf("pressure perturbed outside window at %v: %v", now, got)
		}
		if d := in.TickDelay(now, msDur(1)); d != 0 {
			t.Errorf("tick delayed outside window at %v: %v", now, d)
		}
		if in.CPUStalled(1, now) {
			t.Errorf("CPU stalled outside window at %v", now)
		}
		if in.ThreadStuck("a", now) {
			t.Errorf("thread stuck outside window at %v", now)
		}
		if drop, delay := in.ActuationFault("a", now); drop || delay {
			t.Errorf("actuation fault outside window at %v", now)
		}
	}
	if in.Injected() != 0 {
		t.Fatalf("injections counted outside windows: %d", in.Injected())
	}
	now := ms(15)
	if got := in.PerturbPressure("a", now, 0.25); got != 0.25 {
		t.Errorf("freeze must return the first value seen: %v", got)
	}
	if got := in.PerturbPressure("a", now.Add(msDur(1)), -0.4); got != 0.25 {
		t.Errorf("freeze must pin later samples to the first value: %v", got)
	}
	if d := in.TickDelay(now, msDur(1)); d < 0 || d > msDur(1)/2 {
		t.Errorf("tick delay outside [0, Mag×interval]: %v", d)
	}
	if !in.CPUStalled(1, now) {
		t.Error("CPU 1 not stalled inside window")
	}
	if in.CPUStalled(0, now) {
		t.Error("CPU 0 stalled by a spec aimed at CPU 1")
	}
	if !in.ThreadStuck("a", now) {
		t.Error("thread a not stuck inside window")
	}
	if in.ThreadStuck("b", now) {
		t.Error("thread b stuck by a spec aimed at a")
	}
	if drop, _ := in.ActuationFault("a", now); !drop {
		t.Error("actuation not dropped inside window")
	}
	if drop, delay := in.ActuationFault("b", now); drop || delay {
		t.Error("actuation fault leaked to an unmatched target")
	}
	if in.Injected() == 0 {
		t.Fatal("no injections counted inside windows")
	}
}

func TestDrawsAreCallOrderIndependent(t *testing.T) {
	spec := []Spec{
		{Kind: JumpSignal, Target: "a", At: ms(0), For: msDur(100), Mag: 0.3},
		{Kind: BadSignal, Target: "b", At: ms(0), For: msDur(100), Mag: 0.5},
	}
	a := New(42, spec, nil)
	b := New(42, spec, nil)
	// a samples in one order, b in the reverse; values at each (target,
	// instant) must agree.
	pa1 := a.PerturbPressure("a", ms(5), 0.1)
	pa2 := a.PerturbPressure("b", ms(5), 0.1)
	pb2 := b.PerturbPressure("b", ms(5), 0.1)
	pb1 := b.PerturbPressure("a", ms(5), 0.1)
	if pa1 != pb1 || !sameFloat(pa2, pb2) {
		t.Fatalf("draws depend on call order: %v/%v vs %v/%v", pa1, pa2, pb1, pb2)
	}
	// Different seeds must give different perturbations.
	c := New(43, spec, nil)
	if pc := c.PerturbPressure("a", ms(5), 0.1); pc == pa1 {
		t.Fatalf("seed ignored: %v == %v", pc, pa1)
	}
}

func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b
}

func TestBadSignalEmitsNonFinite(t *testing.T) {
	in := New(7, []Spec{{Kind: BadSignal, At: ms(0), For: msDur(1000), Mag: 0.5}}, nil)
	sawBad := false
	for i := int64(0); i < 50; i++ {
		p := in.PerturbPressure("x", ms(i*10), 0.2)
		if math.IsNaN(p) || math.IsInf(p, 0) {
			sawBad = true
		}
	}
	if !sawBad {
		t.Fatal("BadSignal never produced NaN/Inf over 50 samples")
	}
}

func TestEventFiresOncePerSpec(t *testing.T) {
	var events []Event
	in := New(3, []Spec{
		{Kind: FreezeSignal, Target: "a", At: ms(0), For: msDur(100)},
		{Kind: CPUStall, CPU: 0, At: ms(0), For: msDur(100)},
	}, func(ev Event) { events = append(events, ev) })
	for i := int64(0); i < 10; i++ {
		in.PerturbPressure("a", ms(i), 0.1)
		in.CPUStalled(0, ms(i))
	}
	if len(events) != 2 {
		t.Fatalf("want one event per spec, got %d: %v", len(events), events)
	}
	if events[0].Kind != FreezeSignal || events[0].Spec != 0 {
		t.Fatalf("bad first event: %+v", events[0])
	}
	if events[1].Kind != CPUStall || events[1].CPU != 0 || events[1].Spec != 1 {
		t.Fatalf("bad second event: %+v", events[1])
	}
	if in.Injected() != 20 {
		t.Fatalf("want 20 injections, got %d", in.Injected())
	}
}

func TestDropWinsOverDelay(t *testing.T) {
	in := New(9, []Spec{
		{Kind: DelayActuation, Target: "a", At: ms(0), For: msDur(100)},
		{Kind: DropActuation, Target: "a", At: ms(0), For: msDur(100)},
	}, nil)
	drop, delay := in.ActuationFault("a", ms(5))
	if !drop || delay {
		t.Fatalf("overlapping drop+delay must resolve to drop: drop=%v delay=%v", drop, delay)
	}
}

func TestKindStrings(t *testing.T) {
	for k := FreezeSignal; k <= DelayActuation; k++ {
		if s := k.String(); s == "" || s[0] == 'k' {
			t.Fatalf("kind %d has no slug: %q", int(k), s)
		}
	}
}
