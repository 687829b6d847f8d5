package realrate

import (
	"time"

	"repro/internal/overload"
)

// OverloadConfig enables the supervisory overload governor: a system-wide
// brownout ladder (normal → throttle → shed → freeze) layered over the
// paper's per-job feedback allocator, plus first-class SLO accounting
// (System.SLO). Install one via Config.Overload; nil — the default —
// costs nothing: the hot paths pay one nil check and the dispatch
// schedule is byte-identical to a build without the governor.
//
// The ladder's semantics:
//
//   - throttle: System.Spawn refuses new controller-managed admissions
//     with a *OverloadError carrying a retry-after hint.
//   - shed: additionally, the lowest-importance miscellaneous threads are
//     killed in importance order (Observer.OnShed fires for each).
//     Reservation-holding, real-rate, and interactive threads are never
//     shed.
//   - freeze: additionally, Thread.Renegotiate refuses growth.
//
// The governor needs the feedback controller's saturation signals, so the
// ladder only operates under the default RBS policy; SLO accounting works
// under every policy. Zero fields take defaults.
type OverloadConfig struct {
	// GapFactor trips the demand test when summed desire exceeds
	// capacity × GapFactor (default 1.5). The test only counts while
	// granted/desired has also fallen below 0.75: jobs are visibly
	// squished, not merely asking.
	GapFactor float64
	// TripIntervals is how many consecutive saturated control intervals
	// escalate the ladder one rung (default 25 ≈ 250 ms); RecoverIntervals
	// is how many consecutive healthy intervals de-escalate one rung
	// (default 50) — recovery is bounded, one rung at a time.
	TripIntervals    int
	RecoverIntervals int
	// ShedBatch is how many threads the shed rung kills per saturated
	// interval (default 1).
	ShedBatch int
	// LatencySLO is the wake→dispatch latency target that System.SLO's
	// system-wide attainment is measured against, across every thread
	// (default 10 ms).
	LatencySLO time.Duration
	// SessionSLO is the end-to-end session latency target for the
	// ObserveSessionLatency dimension of System.SLO (default 100 ms).
	SessionSLO time.Duration
}

// governorConfig compiles the public tuning to the internal governor's.
func (oc *OverloadConfig) governorConfig() overload.Config {
	return overload.Config{
		GapFactor:        oc.GapFactor,
		TripIntervals:    oc.TripIntervals,
		RecoverIntervals: oc.RecoverIntervals,
		ShedBatch:        oc.ShedBatch,
	}
}

// OverloadEvent fires on every brownout-ladder movement, with the
// saturation signals that drove it.
type OverloadEvent struct {
	Time time.Duration
	// From and To are ladder rungs: "normal", "throttle", "shed",
	// "freeze". They always differ by exactly one step.
	From, To string
	// Desired, Granted, Capacity are the interval's demand signals in ppt
	// of machine capacity.
	Desired, Granted, Capacity int
}

// ShedEvent fires for every thread killed by the governor's shed rung,
// just before the kill — the handle is still resolvable. An OnExit for
// the same thread follows immediately.
type ShedEvent struct {
	Time   time.Duration
	Thread *Thread
	// Class is always "miscellaneous": only best-effort work is shed.
	Class string
	// Importance is the victim's weighted-fair-share weight; the governor
	// always picks a minimum among live miscellaneous threads.
	Importance float64
	// Rung is the ladder position that ordered the shed.
	Rung string
}
