package core

import (
	"fmt"

	"repro/internal/sim"
)

// AdmissionError is returned when admission control rejects a real-time
// reservation request (§3.3: "the controller performs admission control by
// rejecting new real-time jobs which request more CPU than is currently
// available").
type AdmissionError struct {
	Requested int // ppt
	Available int // ppt
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("core: admission control rejected reservation of %d ppt (available %d ppt)",
		e.Requested, e.Available)
}

// ReservationError rejects a malformed reservation request — non-positive
// proportion or period — before it can reach the dispatcher. Admitting a
// non-positive proportion would corrupt the incremental admission
// accounting (freeing capacity that was never held), and a non-positive
// period used to surface only as a dispatcher error at actuation time.
type ReservationError struct {
	Proportion int
	Period     sim.Duration
}

func (e *ReservationError) Error() string {
	return fmt.Sprintf("core: invalid reservation: %d ppt over %v (proportion and period must be positive)",
		e.Proportion, e.Period)
}

// OverloadError reports a request refused by the overload governor's
// system-wide brownout ladder: at the throttle rung and above new
// admissions are rejected, and at the freeze rung renegotiations to
// larger reservations are refused as well. Callers get backpressure
// instead of a squished allocation; RetryAfter is the computed hint — the
// earliest instant the ladder could possibly have unwound to normal.
type OverloadError struct {
	// Rung names the ladder position that refused the request
	// ("throttle", "shed", or "freeze").
	Rung string
	// RetryAfter is the backpressure hint; always positive.
	RetryAfter sim.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("core: system overloaded (rung %s); retry after %v", e.Rung, e.RetryAfter)
}

// ActuationError is raised when the dispatcher refuses a reservation the
// controller tried to install. It used to be a panic
// ("core: actuation failed"); now it is counted, emitted as an
// EventActuationError, and the controller carries on with the job's
// previous reservation.
type ActuationError struct {
	Job        *Job
	Proportion int
	Period     sim.Duration
	Err        error
}

func (e *ActuationError) Error() string {
	return fmt.Sprintf("core: actuation of %d ppt over %v for job %s failed: %v",
		e.Proportion, e.Period, e.Job.thread.Name(), e.Err)
}

func (e *ActuationError) Unwrap() error { return e.Err }

// DegradeLevel is a rung of the graceful-degradation ladder a real-rate
// job descends when its progress signal goes flat: full feedback control,
// then a frozen fallback proportion, then the miscellaneous heuristic.
type DegradeLevel int

const (
	// LevelRealRate is the healthy state: proportion from the PID filter.
	LevelRealRate DegradeLevel = iota
	// LevelFallback holds the last healthy allocation as a fixed
	// proportion; the PID filter is frozen (anti-windup), so promotion
	// resumes from the pre-fault integral without an allocation slam.
	LevelFallback
	// LevelMisc treats the job like a miscellaneous thread: usage-driven
	// constant pressure, ignoring the (untrustworthy) progress signal.
	LevelMisc
)

func (l DegradeLevel) String() string {
	switch l {
	case LevelRealRate:
		return "real-rate"
	case LevelFallback:
		return "fallback"
	case LevelMisc:
		return "misc"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Health is the controller's fault-tolerance counters snapshot.
type Health struct {
	// SignalsRejected counts NaN/Inf pressure samples the sanitizer
	// refused to feed into the estimator.
	SignalsRejected uint64
	// ActuationErrors counts dispatcher-refused reservation installs.
	ActuationErrors uint64
	// ActuationsDropped and ActuationsDelayed count injected actuation
	// faults.
	ActuationsDropped uint64
	ActuationsDelayed uint64
	// Degradations and Recoveries count ladder movements.
	Degradations uint64
	Recoveries   uint64
	// JobsDegraded is the number of jobs currently below LevelRealRate.
	JobsDegraded int
	// Sheds counts jobs killed by the overload governor's shed rung;
	// Throttled counts admissions and renegotiations the governor refused.
	Sheds     uint64
	Throttled uint64
}
