package gen

import (
	"testing"

	realrate "repro"
)

// TestObserverOraclesFire feeds synthetic observer event sequences to a
// checker and asserts that each trips exactly its named oracle — the
// observer-fed oracles can fail, so their silence on real runs means
// something — while a clean sequence touching every event trips none.
func TestObserverOraclesFire(t *testing.T) {
	// Two live miscellaneous threads, "lo" (importance 1) and "hi"
	// (importance 2); the machine never runs, so both stay live.
	type threads map[string]*realrate.Thread
	planned := []realrate.FaultSpec{{Kind: realrate.FaultFreezeSignal, Target: "lo"}}
	shedLo := realrate.ShedEvent{Class: "miscellaneous", Importance: 1, Rung: "shed"}
	cases := []struct {
		name      string
		policy    string
		spec      Spec
		events    func(c *checker, th threads)
		invariant string // "" for the clean sequence
	}{
		{
			name: "clean", policy: "rbs", spec: Spec{Faults: planned, Overload: true},
			events: func(c *checker, th threads) {
				c.OnFault(realrate.FaultEvent{Thread: th["lo"], Kind: "freeze-signal"})
				c.OnDegrade(realrate.DegradeEvent{Thread: th["lo"], From: "real-rate", To: "fallback"})
				c.OnDegrade(realrate.DegradeEvent{Thread: th["lo"], From: "fallback", To: "misc"})
				c.OnRecover(realrate.RecoverEvent{Thread: th["lo"], From: "misc", To: "fallback"})
				c.OnRecover(realrate.RecoverEvent{Thread: th["lo"], From: "fallback", To: "real-rate"})
				c.OnOverload(realrate.OverloadEvent{From: "normal", To: "throttle"})
				c.OnOverload(realrate.OverloadEvent{From: "throttle", To: "shed"})
				ev := shedLo
				ev.Thread = th["lo"]
				c.OnShed(ev)
				c.OnExit(0, th["lo"])
			},
		},
		{
			name: "recover without degrade", policy: "rbs", spec: Spec{Faults: planned},
			events: func(c *checker, th threads) {
				c.OnRecover(realrate.RecoverEvent{Thread: th["lo"], From: "fallback", To: "real-rate"})
			},
			invariant: "ladder-pairing",
		},
		{
			name: "degrade below misc", policy: "rbs", spec: Spec{Faults: planned},
			events: func(c *checker, th threads) {
				for i := 0; i < 3; i++ {
					c.OnDegrade(realrate.DegradeEvent{Thread: th["lo"]})
				}
			},
			invariant: "ladder-pairing",
		},
		{
			name: "degrade under a baseline", policy: "stride", spec: Spec{Faults: planned},
			events: func(c *checker, th threads) {
				c.OnDegrade(realrate.DegradeEvent{Thread: th["lo"], From: "real-rate", To: "fallback"})
			},
			invariant: "ladder-pairing",
		},
		{
			name: "two-rung jump", policy: "rbs", spec: Spec{Overload: true},
			events: func(c *checker, th threads) {
				c.OnOverload(realrate.OverloadEvent{From: "normal", To: "shed"})
			},
			invariant: "overload-ladder",
		},
		{
			name: "broken chain", policy: "rbs", spec: Spec{Overload: true},
			events: func(c *checker, th threads) {
				c.OnOverload(realrate.OverloadEvent{From: "throttle", To: "shed"})
			},
			invariant: "overload-ladder",
		},
		{
			name: "ladder without a governor", policy: "rbs", spec: Spec{},
			events: func(c *checker, th threads) {
				c.OnOverload(realrate.OverloadEvent{From: "normal", To: "throttle"})
			},
			invariant: "overload-unplanned",
		},
		{
			name: "shed of a non-miscellaneous thread", policy: "rbs", spec: Spec{Overload: true},
			events: func(c *checker, th threads) {
				ev := shedLo
				ev.Thread, ev.Class = th["lo"], "interactive"
				c.OnShed(ev)
			},
			invariant: "shed-class",
		},
		{
			name: "shed out of importance order", policy: "rbs", spec: Spec{Overload: true},
			events: func(c *checker, th threads) {
				ev := shedLo
				ev.Thread, ev.Importance = th["hi"], 2
				c.OnShed(ev)
			},
			invariant: "shed-order",
		},
		{
			name: "fault without a plan", policy: "rbs", spec: Spec{},
			events: func(c *checker, th threads) {
				c.OnFault(realrate.FaultEvent{Thread: th["lo"], Kind: "signal-rejected", CPU: -1})
			},
			invariant: "fault-unplanned",
		},
		{
			name: "degrade of an untargeted thread", policy: "rbs", spec: Spec{Faults: planned},
			events: func(c *checker, th threads) {
				c.OnDegrade(realrate.DegradeEvent{Thread: th["hi"], From: "real-rate", To: "fallback"})
			},
			invariant: "fault-isolation",
		},
		{
			name: "double exit", policy: "rbs", spec: Spec{},
			events: func(c *checker, th threads) {
				c.OnExit(0, th["lo"])
				c.OnExit(0, th["lo"])
			},
			invariant: "double-exit",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := realrate.NewSystem(realrate.Config{})
			c := newChecker(sys, tc.policy, &Scenario{Spec: tc.spec})
			th := threads{}
			for i, name := range []string{"lo", "hi"} {
				h, err := sys.Spawn(name, realrate.HogProgram(1000),
					realrate.Miscellaneous(), realrate.Importance(float64(i+1)))
				c.spawned(h, err, false, -1)
				th[name] = h
			}
			tc.events(c, th)
			var fired []string
			for _, v := range c.violations {
				fired = append(fired, v.Invariant)
			}
			if tc.invariant == "" {
				if len(fired) != 0 {
					t.Fatalf("clean sequence tripped %v: %v", fired, c.violations)
				}
				return
			}
			if len(fired) != 1 || fired[0] != tc.invariant {
				t.Fatalf("tripped %v, want exactly [%s]: %v", fired, tc.invariant, c.violations)
			}
		})
	}
}
