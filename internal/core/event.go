package core

import "repro/internal/sim"

// EventKind names one kind of control event. Each kind is a single bit, so
// a set of kinds — what a sink subscribes to — is their OR.
type EventKind uint16

const (
	// EventJobAdded fires after a job is registered; EventJobRemoved after
	// it leaves (Remove, or ThreadExited for its last member). Payload:
	// Job.
	EventJobAdded EventKind = 1 << iota
	EventJobRemoved
	// EventStep fires at the end of every control epoch. Payload: Time.
	EventStep
	// EventActuate fires for every reservation change pushed into the
	// dispatcher, never for a job whose primary thread has exited.
	// Payload: Job, Prop (the job's total proportion), Period.
	EventActuate
	// EventQuality is the quality exception (§3.1/§4.2): a real-rate job's
	// pressure stayed saturated while it was squished, so the machine
	// lacks the CPU it needs and it should lower its requirements.
	// Payload: Job, Value (the filtered pressure), Desired, Granted.
	EventQuality
	// EventSignalRejected fires when the sanitizer refuses a NaN/Inf
	// progress sample. Payload: Job, Value (the raw sample).
	EventSignalRejected
	// EventActuationError fires when the dispatcher refuses a member's
	// reservation; the job keeps its previous one. Payload: Job, Err (an
	// *ActuationError).
	EventActuationError
	// EventActuationDropped and EventActuationDelayed fire when the fault
	// injector drops an actuation or defers it to the next interval.
	// Payload: Job.
	EventActuationDropped
	EventActuationDelayed
	// EventDegrade and EventRecover fire when the watchdog moves a job one
	// rung down or up the degradation ladder. Payload: Job, From and To
	// (DegradeLevel).
	EventDegrade
	EventRecover
	// EventShed fires for every job the governor's shed rung kills, before
	// its threads are retired, so a sink can still resolve them. Payload:
	// Job, To (the overload.Rung that ordered the shed).
	EventShed
	// EventRung fires on every brownout-ladder movement. Payload: From and
	// To (overload.Rung), and the interval's Desired, Granted and Capacity
	// in ppt of machine capacity.
	EventRung

	// EventFaults is every controller-detected fault.
	EventFaults = EventSignalRejected | EventActuationError | EventActuationDropped | EventActuationDelayed
)

var eventNames = [...]string{
	"job-added", "job-removed", "step", "actuate", "quality",
	"signal-rejected", "actuation-error", "actuation-dropped", "actuation-delayed",
	"degrade", "recover", "shed", "rung",
}

// String returns the kind's slug; the fault kinds' slugs are the public
// fault taxonomy.
func (k EventKind) String() string {
	for i, name := range eventNames {
		if k == 1<<i {
			return name
		}
	}
	return "event-set"
}

// Event is one control event. It is a fixed-size value — the kind, the
// time, the job, and a small union of payload fields whose meaning each
// kind documents — so emitting one allocates nothing.
type Event struct {
	Kind EventKind
	// From and To are ladder positions: DegradeLevel for EventDegrade and
	// EventRecover, overload.Rung for EventRung and EventShed.
	From, To int8
	Time     sim.Time
	Job      *Job
	Prop     int
	Period   sim.Duration
	Desired  int
	Granted  int
	Capacity int
	Value    float64
	Err      error
}

// Sink consumes control events. Handle runs synchronously at the emission
// site, inside the control loop: it must not mutate the system.
type Sink interface {
	Handle(ev Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(ev Event)

// Handle calls f.
func (f SinkFunc) Handle(ev Event) { f(ev) }

type subscription struct {
	sink  Sink
	kinds EventKind
}

// Subscribe delivers every event whose kind is in kinds to sink. Sinks
// fire in subscription order; each call adds a subscription. The
// controller keeps the OR of every subscribed set, so an event kind no
// sink wants costs its emission site one bit test.
func (c *Controller) Subscribe(sink Sink, kinds EventKind) {
	c.subs = append(c.subs, subscription{sink, kinds})
	c.subscribed |= kinds
}

// wants reports whether any sink subscribed to kind.
func (c *Controller) wants(kind EventKind) bool { return c.subscribed&kind != 0 }

// emit delivers ev to every sink subscribed to its kind.
func (c *Controller) emit(ev Event) {
	for _, s := range c.subs {
		if s.kinds&ev.Kind != 0 {
			s.sink.Handle(ev)
		}
	}
}
