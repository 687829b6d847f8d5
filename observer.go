package realrate

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/overload"
	"repro/internal/sim"
)

// Observer receives scheduling and control events as the simulation runs —
// the tap that cmd/rrtop, cmd/rrtrace, and the trace recorder consume
// instead of private wiring. Register one with System.Observe before Run.
//
// Callbacks fire synchronously from kernel and controller hot paths: they
// must not mutate system state, and should be cheap. When no observer is
// registered the hot paths pay a single nil check, and the no-op fast path
// allocates nothing.
//
// Embed NopObserver to implement only the callbacks you care about.
type Observer interface {
	// OnDispatch fires when a thread begins a run segment on the given
	// CPU. th is nil for threads not created through the public API (the
	// controller's own thread). cpu is always 0 on a single-CPU machine.
	OnDispatch(now time.Duration, th *Thread, cpu int)
	// OnMigration fires when a thread is moved between CPUs (work-pull on
	// an idle CPU). It never fires when Config.CPUs <= 1. th is nil for
	// threads not created through the public API.
	OnMigration(now time.Duration, th *Thread, from, to int)
	// OnActuation fires when the feedback controller pushes a new
	// reservation into the dispatcher for th's job.
	OnActuation(now time.Duration, th *Thread, proportion int, period time.Duration)
	// OnQuality fires for every quality exception: sustained overload has
	// squished th's job below what its progress requires. It never fires
	// under a baseline policy, which runs no controller.
	OnQuality(ev QualityEvent)
	// OnAdmission fires for every admission-control decision: reservation
	// requests from Spawn (Reserve and Aperiodic options) and from
	// Thread.Renegotiate, accepted or rejected.
	OnAdmission(ev AdmissionEvent)
	// OnExit fires exactly once when a thread leaves the machine — its
	// program returned Exit() or it was killed. It is the last event for
	// that thread: no OnDispatch or OnActuation follows it.
	OnExit(now time.Duration, th *Thread)
	// OnFault fires once per injected fault spec (at its first actual
	// injection) and for every controller-detected anomaly: rejected
	// progress samples, failed/dropped/delayed actuations. It never fires
	// in a healthy run with well-behaved sources.
	OnFault(ev FaultEvent)
	// OnDegrade fires when the watchdog demotes a real-rate thread one
	// rung down the degradation ladder (real-rate → fallback → misc).
	OnDegrade(ev DegradeEvent)
	// OnRecover fires when a degraded thread's progress signal recovers
	// and it is promoted one rung back up. Every OnRecover pairs with an
	// earlier OnDegrade for the same thread.
	OnRecover(ev RecoverEvent)
	// OnOverload fires on every movement of the overload governor's
	// brownout ladder (see OverloadConfig). It never fires with
	// Config.Overload nil.
	OnOverload(ev OverloadEvent)
	// OnShed fires for every thread the governor's shed rung kills, just
	// before the kill; an OnExit for the same thread follows.
	OnShed(ev ShedEvent)
}

// AdmissionEvent is one admission-control decision.
type AdmissionEvent struct {
	// Time is the simulated instant of the decision.
	Time time.Duration
	// Thread is the requesting thread. On a rejected Spawn the handle is
	// already retired: it never ran and is not part of the system.
	Thread *Thread
	// Requested is the proportion asked for, in ppt.
	Requested int
	// Period is the requested period (0 for aperiodic requests).
	Period time.Duration
	// Accepted reports the decision; when false Err holds the
	// admission-control error.
	Accepted bool
	Err      error
}

// NopObserver is an Observer that ignores every event. Embed it to
// implement only a subset of the callbacks.
type NopObserver struct{}

// OnDispatch implements Observer.
func (NopObserver) OnDispatch(time.Duration, *Thread, int) {}

// OnMigration implements Observer.
func (NopObserver) OnMigration(time.Duration, *Thread, int, int) {}

// OnActuation implements Observer.
func (NopObserver) OnActuation(time.Duration, *Thread, int, time.Duration) {}

// OnQuality implements Observer.
func (NopObserver) OnQuality(QualityEvent) {}

// OnAdmission implements Observer.
func (NopObserver) OnAdmission(AdmissionEvent) {}

// OnExit implements Observer.
func (NopObserver) OnExit(time.Duration, *Thread) {}

// OnFault implements Observer.
func (NopObserver) OnFault(FaultEvent) {}

// OnDegrade implements Observer.
func (NopObserver) OnDegrade(DegradeEvent) {}

// OnRecover implements Observer.
func (NopObserver) OnRecover(RecoverEvent) {}

// OnOverload implements Observer.
func (NopObserver) OnOverload(OverloadEvent) {}

// OnShed implements Observer.
func (NopObserver) OnShed(ShedEvent) {}

// Observe registers an observer. Multiple observers fire in registration
// order. Call before Run; observers cannot be removed.
func (s *System) Observe(o Observer) {
	if o == nil {
		panic("realrate: Observe(nil)")
	}
	s.hub.obs = append(s.hub.obs, o)
	s.hub.install()
	if len(s.hub.obs) == 1 && s.ctl != nil {
		// Only observers consume controller events, so an unobserved
		// system takes none of them.
		s.ctl.Subscribe(&s.hub, core.EventActuate|core.EventQuality|core.EventFaults|
			core.EventDegrade|core.EventRecover|core.EventShed|core.EventRung)
	}
}

// observerHub multiplexes kernel trace events and controller events to
// the trace recorder and registered observers. It is installed as the
// kernel tracer only once tracing or an observer actually exists, so
// unobserved systems keep the kernel's tracer-nil fast path.
type observerHub struct {
	sys *System
	rec kernel.Tracer // the trace recorder, when tracing is enabled
	obs []Observer
	// slo is the SLO latency tracker, set iff Config.Overload enabled it;
	// it taps the wake and dispatch edges.
	slo *sloTracker

	installed bool
}

var _ kernel.Tracer = (*observerHub)(nil)

// install wires the hub into the kernel on first use.
func (h *observerHub) install() {
	if h.installed {
		return
	}
	h.installed = true
	h.sys.kern.SetTracer(h)
}

// OnDispatch implements kernel.Tracer.
func (h *observerHub) OnDispatch(now sim.Time, t *kernel.Thread) {
	if h.rec != nil {
		h.rec.OnDispatch(now, t)
	}
	if h.slo != nil {
		h.slo.dispatch(now, t)
	}
	if len(h.obs) > 0 {
		th := handleOf(t)
		cpu := t.CPU()
		for _, o := range h.obs {
			o.OnDispatch(time.Duration(now), th, cpu)
		}
	}
}

// OnMigration implements kernel.Tracer.
func (h *observerHub) OnMigration(now sim.Time, t *kernel.Thread, from, to int) {
	if h.rec != nil {
		h.rec.OnMigration(now, t, from, to)
	}
	if len(h.obs) > 0 {
		th := handleOf(t)
		for _, o := range h.obs {
			o.OnMigration(time.Duration(now), th, from, to)
		}
	}
}

// OnDeschedule implements kernel.Tracer (recorder-only; observers see
// dispatch edges).
func (h *observerHub) OnDeschedule(now sim.Time, t *kernel.Thread, ran sim.Duration) {
	if h.rec != nil {
		h.rec.OnDeschedule(now, t, ran)
	}
}

// OnWake implements kernel.Tracer (recorder and SLO tracker).
func (h *observerHub) OnWake(now sim.Time, t *kernel.Thread) {
	if h.rec != nil {
		h.rec.OnWake(now, t)
	}
	if h.slo != nil {
		h.slo.wake(now, t)
	}
}

// OnBlock implements kernel.Tracer (recorder-only).
func (h *observerHub) OnBlock(now sim.Time, t *kernel.Thread, wq *kernel.WaitQueue) {
	if h.rec != nil {
		h.rec.OnBlock(now, t, wq)
	}
}

// Handle implements core.Sink: it translates controller events to the
// public observer events. The hub subscribes once the first observer
// registers, so there is always one to deliver to.
func (h *observerHub) Handle(ev core.Event) {
	var th *Thread
	if ev.Job != nil {
		th = handleOf(ev.Job.Thread())
	}
	now := time.Duration(ev.Time)
	switch ev.Kind {
	case core.EventQuality:
		qe := QualityEvent{Thread: th, Time: now, Pressure: ev.Value,
			Desired: ev.Desired, Allocated: ev.Granted, Reason: qualityReason}
		for _, o := range h.obs {
			o.OnQuality(qe)
		}
	case core.EventActuate:
		for _, o := range h.obs {
			o.OnActuation(now, th, ev.Prop, time.Duration(ev.Period))
		}
	case core.EventDegrade:
		de := DegradeEvent{Time: now, Thread: th, From: core.DegradeLevel(ev.From).String(),
			To: core.DegradeLevel(ev.To).String(), Reason: "flat progress signal"}
		for _, o := range h.obs {
			o.OnDegrade(de)
		}
	case core.EventRecover:
		re := RecoverEvent{Time: now, Thread: th, From: core.DegradeLevel(ev.From).String(),
			To: core.DegradeLevel(ev.To).String()}
		for _, o := range h.obs {
			o.OnRecover(re)
		}
	case core.EventShed:
		se := ShedEvent{Time: now, Thread: th, Class: ev.Job.Class().String(),
			Importance: ev.Job.Importance(), Rung: overload.Rung(ev.To).String()}
		for _, o := range h.obs {
			o.OnShed(se)
		}
	case core.EventRung:
		oe := OverloadEvent{Time: now, From: overload.Rung(ev.From).String(), To: overload.Rung(ev.To).String(),
			Desired: ev.Desired, Granted: ev.Granted, Capacity: ev.Capacity}
		for _, o := range h.obs {
			o.OnOverload(oe)
		}
	default: // a controller-detected fault
		fe := FaultEvent{Time: now, Thread: th, Kind: ev.Kind.String(), CPU: -1, Err: ev.Err}
		if ev.Kind == core.EventSignalRejected {
			fe.Detail = fmt.Sprintf("pressure %v", ev.Value)
		}
		for _, o := range h.obs {
			o.OnFault(fe)
		}
	}
}

// fireAdmission fans an admission decision out to observers.
func (s *System) fireAdmission(ev AdmissionEvent) {
	for _, o := range s.hub.obs {
		o.OnAdmission(ev)
	}
}
