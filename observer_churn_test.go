package realrate_test

import (
	"testing"
	"time"

	realrate "repro"

	"repro/internal/workload/gen"
)

// orderEvent is one observer callback, in arrival order.
type orderEvent struct {
	kind string // "admit", "dispatch", "actuate", "exit"
	at   time.Duration
	th   *realrate.Thread
}

// orderingObserver records the full event stream.
type orderingObserver struct {
	realrate.NopObserver
	events []orderEvent
}

func (o *orderingObserver) OnDispatch(now time.Duration, th *realrate.Thread, cpu int) {
	o.events = append(o.events, orderEvent{"dispatch", now, th})
}

func (o *orderingObserver) OnActuation(now time.Duration, th *realrate.Thread, prop int, period time.Duration) {
	o.events = append(o.events, orderEvent{"actuate", now, th})
}

func (o *orderingObserver) OnAdmission(ev realrate.AdmissionEvent) {
	if ev.Accepted {
		o.events = append(o.events, orderEvent{"admit", ev.Time, ev.Thread})
	}
}

func (o *orderingObserver) OnExit(now time.Duration, th *realrate.Thread) {
	o.events = append(o.events, orderEvent{"exit", now, th})
}

// TestObserverOrderingUnderChurn runs generated admission-churn scenarios
// and asserts the observer lifecycle contract per thread: events carry
// non-decreasing timestamps, an accepted admission precedes the thread's
// first dispatch, and nothing — no dispatch, no actuation — fires after
// the thread's OnExit, which fires exactly once.
func TestObserverOrderingUnderChurn(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for _, policy := range []string{"rbs", "stride"} {
			sp, err := gen.ForSeed("churn", seed)
			if err != nil {
				t.Fatal(err)
			}
			obs := &orderingObserver{}
			res, err := gen.Generate(sp).Run(gen.RunOpts{Policy: policy, Observer: obs})
			if err != nil {
				t.Fatal(err)
			}
			if res.Report.Kills == 0 {
				t.Fatalf("seed %d: churn scenario killed nothing", seed)
			}
			if len(obs.events) == 0 {
				t.Fatalf("seed %d/%s: no events observed", seed, policy)
			}

			type life struct {
				admitted      bool
				admitAt       time.Duration
				dispatched    bool
				firstDispatch time.Duration
				exits         int
				exitAt        time.Duration
			}
			lives := make(map[*realrate.Thread]*life)
			at := func(th *realrate.Thread) *life {
				l := lives[th]
				if l == nil {
					l = &life{}
					lives[th] = l
				}
				return l
			}
			last := time.Duration(-1)
			for _, ev := range obs.events {
				// Dispatch events are stamped at segment start — engine now
				// plus pending kernel overhead — so they may sit slightly
				// ahead of same-instant events; order among the rest is the
				// engine's causal order and must be monotone.
				if ev.kind != "dispatch" {
					if ev.at < last {
						t.Fatalf("seed %d/%s: time went backwards: %v after %v (%s)",
							seed, policy, ev.at, last, ev.kind)
					}
					last = ev.at
				}
				if ev.th == nil {
					continue // the controller's thread has no public handle
				}
				l := at(ev.th)
				switch ev.kind {
				case "admit":
					if !l.admitted {
						l.admitted, l.admitAt = true, ev.at
					}
				case "dispatch":
					if !l.dispatched {
						l.dispatched, l.firstDispatch = true, ev.at
					}
					if l.exits > 0 {
						t.Errorf("seed %d/%s: %s dispatched at %v after its exit at %v",
							seed, policy, ev.th.Name(), ev.at, l.exitAt)
					}
				case "actuate":
					if l.exits > 0 {
						t.Errorf("seed %d/%s: %s actuated at %v after its exit at %v",
							seed, policy, ev.th.Name(), ev.at, l.exitAt)
					}
				case "exit":
					l.exits++
					l.exitAt = ev.at
					if l.exits > 1 {
						t.Errorf("seed %d/%s: %s exited %d times", seed, policy, ev.th.Name(), l.exits)
					}
				}
			}
			for th, l := range lives {
				if l.admitted && l.dispatched && l.firstDispatch < l.admitAt {
					t.Errorf("seed %d/%s: %s dispatched at %v before its admission at %v",
						seed, policy, th.Name(), l.firstDispatch, l.admitAt)
				}
				// Every exited thread's handle must agree it is gone.
				if l.exits > 0 && th.State() != "exited" {
					t.Errorf("seed %d/%s: %s got OnExit but is %q", seed, policy, th.Name(), th.State())
				}
			}
		}
	}
}

// TestKillRetiresImmediately pins the public Kill semantics: the thread
// stops consuming CPU at once, observers see its OnExit, and its
// reservation is admittable again as soon as Kill returns.
func TestKillRetiresImmediately(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	obs := &orderingObserver{}
	sys.Observe(obs)
	rt, err := sys.Spawn("rt", realrate.HogProgram(400_000), realrate.Reserve(600, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(time.Second)
	used := rt.CPUTime()
	if used == 0 {
		t.Fatal("rt never ran")
	}
	rt.Kill()
	rt.Kill() // idempotent
	if rt.State() != "exited" {
		t.Fatalf("state after Kill = %q", rt.State())
	}
	// The exit hook tears the job down at once: the freed 600 ppt is
	// admittable before any control interval runs.
	if _, err := sys.Spawn("next", realrate.HogProgram(400_000), realrate.Reserve(600, 10*time.Millisecond)); err != nil {
		t.Fatalf("reservation not freed by Kill: %v", err)
	}
	sys.Run(time.Second)
	if got := rt.CPUTime(); got != used {
		t.Fatalf("killed thread kept running: %v -> %v", used, got)
	}
	exits := 0
	for _, ev := range obs.events {
		if ev.kind == "exit" && ev.th == rt {
			exits++
		}
	}
	if exits != 1 {
		t.Fatalf("observers saw %d exits for the killed thread, want 1", exits)
	}
}
