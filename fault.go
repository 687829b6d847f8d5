package realrate

import (
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
)

// FaultKind enumerates the injectable fault taxonomy (DESIGN.md §8).
type FaultKind int

const (
	// FaultFreezeSignal pins a thread's summed progress pressure at the
	// first value seen inside the window — a stalled pipeline's signature.
	FaultFreezeSignal FaultKind = iota
	// FaultJumpSignal adds a seeded perturbation in [−Mag, +Mag] to each
	// pressure sample: a wildly non-monotonic signal.
	FaultJumpSignal
	// FaultBadSignal replaces pressure samples with NaN, ±Inf, or −Mag.
	FaultBadSignal
	// FaultTickJitter delays each timer interrupt by up to Mag × the tick
	// interval.
	FaultTickJitter
	// FaultCPUStall makes one CPU skip every dispatch point inside the
	// window, exercising work-pull recovery on its peers.
	FaultCPUStall
	// FaultStuckThread makes the target thread spin without running its
	// program: run segments with no progress.
	FaultStuckThread
	// FaultDropActuation discards the controller's reservation pushes for
	// the target inside the window.
	FaultDropActuation
	// FaultDelayActuation defers the controller's reservation pushes for
	// the target to the next control interval.
	FaultDelayActuation
)

func (k FaultKind) String() string { return faults.Kind(k).String() }

// FaultSpec is one scheduled fault: a kind active on [At, At+For), aimed
// at a thread name (Target; "" matches every thread) or a CPU (the stall
// kind), with a kind-specific magnitude.
type FaultSpec struct {
	Kind   FaultKind
	Target string
	CPU    int
	At     time.Duration
	For    time.Duration
	Mag    float64
}

// FaultPlan is a seeded, declarative fault schedule. Install one via
// Config.Faults; with a nil plan the fault apparatus costs nothing — the
// kernel and controller hot paths pay one nil check and the goldens stay
// byte-identical.
type FaultPlan struct {
	// Seed drives every randomized draw (jitter amounts, jump sizes, bad
	// values). Draws are pure hashes of (seed, spec, target, instant), so
	// a plan replays identically regardless of scheduling order.
	Seed  uint64
	Specs []FaultSpec
}

// FaultEvent is one fault surfaced to observers: either an injection (the
// first firing of each scheduled spec) or a controller detection (a
// rejected signal, a failed/dropped/delayed actuation).
type FaultEvent struct {
	Time time.Duration
	// Thread is the affected thread; nil for machine-level faults (tick
	// jitter, CPU stalls) and for injections aimed at every thread.
	Thread *Thread
	// Kind is the taxonomy slug: "freeze-signal", "jump-signal",
	// "bad-signal", "tick-jitter", "cpu-stall", "stuck-thread",
	// "drop-actuation", "delay-actuation" for injections;
	// "signal-rejected", "actuation-error", "actuation-dropped",
	// "actuation-delayed" for detections.
	Kind string
	// CPU is the stalled CPU for "cpu-stall" events, −1 otherwise.
	CPU    int
	Detail string
	// Err carries the typed error for "actuation-error" events.
	Err error
}

// DegradeEvent fires when the controller's watchdog demotes a real-rate
// job one rung down the degradation ladder: real-rate → fallback → misc.
type DegradeEvent struct {
	Time     time.Duration
	Thread   *Thread
	From, To string
	Reason   string
}

// RecoverEvent fires when a degraded job's progress signal recovers and
// the job is promoted one rung back up the ladder.
type RecoverEvent struct {
	Time     time.Duration
	Thread   *Thread
	From, To string
}

// Health is a snapshot of the system's fault-tolerance state.
type Health struct {
	// FaultsInjected counts individual injections performed by the
	// configured FaultPlan (zero with Config.Faults nil).
	FaultsInjected uint64
	// SignalsRejected counts NaN/Inf pressure samples refused at the
	// controller boundary and by the custom-source clamping adapter.
	SignalsRejected uint64
	// ActuationErrors counts dispatcher-refused reservation installs.
	ActuationErrors uint64
	// ActuationsDropped and ActuationsDelayed count injected actuation
	// faults.
	ActuationsDropped uint64
	ActuationsDelayed uint64
	// Degradations and Recoveries count ladder movements; JobsDegraded is
	// the number of jobs currently below the healthy rung.
	Degradations uint64
	Recoveries   uint64
	JobsDegraded int
	// OverloadRung is the overload governor's current brownout rung
	// ("normal", "throttle", "shed", "freeze"); empty with Config.Overload
	// nil. Sheds counts threads the shed rung killed; Throttled counts
	// admissions and renegotiations the governor refused.
	OverloadRung string
	Sheds        uint64
	Throttled    uint64
}

// Health returns the system's fault-tolerance counters. All zeros in a
// healthy run with well-behaved progress sources.
func (s *System) Health() Health {
	h := Health{SignalsRejected: s.srcRejects}
	if s.faults != nil {
		h.FaultsInjected = s.faults.Injected()
	}
	if s.ctl != nil {
		ch := s.ctl.Health()
		h.SignalsRejected += ch.SignalsRejected
		h.ActuationErrors = ch.ActuationErrors
		h.ActuationsDropped = ch.ActuationsDropped
		h.ActuationsDelayed = ch.ActuationsDelayed
		h.Degradations = ch.Degradations
		h.Recoveries = ch.Recoveries
		h.JobsDegraded = ch.JobsDegraded
		h.Sheds = ch.Sheds
		h.Throttled = ch.Throttled
		if g := s.ctl.Governor(); g != nil {
			h.OverloadRung = g.Rung().String()
		}
	}
	return h
}

// buildInjector compiles the public plan to the internal injector and
// wires its first-injection events to observers.
func (s *System) buildInjector(plan *FaultPlan) *faults.Injector {
	specs := make([]faults.Spec, len(plan.Specs))
	for i, f := range plan.Specs {
		specs[i] = faults.Spec{
			Kind:   faults.Kind(f.Kind),
			Target: f.Target,
			CPU:    f.CPU,
			At:     sim.Time(f.At),
			For:    sim.FromStd(f.For),
			Mag:    f.Mag,
		}
	}
	return faults.New(plan.Seed, specs, s.fireInjected)
}

// fireInjected fans a first-injection event out to observers.
func (s *System) fireInjected(ev faults.Event) {
	if len(s.hub.obs) == 0 {
		return
	}
	out := FaultEvent{
		Time: time.Duration(ev.Time),
		Kind: ev.Kind.String(),
		CPU:  ev.CPU,
	}
	if ev.Target != "" {
		out.Thread = s.threadByName(ev.Target)
	}
	for _, o := range s.hub.obs {
		o.OnFault(out)
	}
}

// threadByName finds a live public handle by thread name; among live
// threads sharing the name it picks the lowest thread ID, so the answer
// never depends on iteration order. Only the rare fault-event path uses
// it: it walks every live kernel thread.
func (s *System) threadByName(name string) *Thread {
	var best *Thread
	for _, t := range s.kern.Threads() {
		if th := handleOf(t); th != nil && th.name == name && (best == nil || t.ID() < best.t.ID()) {
			best = th
		}
	}
	return best
}
