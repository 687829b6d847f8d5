// Package overload implements the supervisory overload governor: an outer
// control loop layered over the paper's per-job feedback allocator. The
// inner loop (internal/core) answers "how much CPU should each job get";
// the governor answers "is the machine as a whole over-committed, and what
// system-wide degradation rung should be active". It is a pure,
// deterministic state machine — the controller feeds it one Signals sample
// per 10 ms interval and acts on the returned Decision — so it can be
// unit-tested and fuzzed in isolation from the kernel.
//
// The ladder has four rungs with one-step transitions and hysteresis:
//
//	normal   — nothing; the inner loop (squish) handles transients.
//	throttle — new admissions are rejected with a retry-after hint.
//	shed     — additionally, the lowest-importance miscellaneous jobs are
//	           killed, one batch per interval, until the recovery band
//	           clears.
//	freeze   — additionally, renegotiations to larger reservations refuse.
//
// Saturation is judged from signals already flowing through the stack:
// the desire-vs-capacity gap and the squish compression ratio. Escalation
// requires TripIntervals consecutive saturated samples; de-escalation
// requires RecoverIntervals consecutive healthy samples against a lower
// recovery band, so the ladder cannot chatter at the trip point.
package overload

import "repro/internal/sim"

// Rung is one step of the system-wide brownout ladder.
type Rung int

const (
	// Normal: no governor intervention.
	Normal Rung = iota
	// Throttle: new admissions are rejected with a retry-after hint.
	Throttle
	// Shed: lowest-importance miscellaneous jobs are killed in importance
	// order, one batch per saturated interval.
	Shed
	// Freeze: renegotiations to larger reservations are refused.
	Freeze
)

func (r Rung) String() string {
	switch r {
	case Normal:
		return "normal"
	case Throttle:
		return "throttle"
	case Shed:
		return "shed"
	case Freeze:
		return "freeze"
	default:
		return "rung(?)"
	}
}

// SquishTrip is the compression-ratio floor: the demand test only counts
// as saturation while Granted/Desired has actually fallen below this ratio
// (jobs are visibly squished, not merely asking).
const SquishTrip float64 = 0.75

// Config tunes the governor's trip points and hysteresis. The zero value
// of any field selects the default.
type Config struct {
	// GapFactor trips the demand test when the summed desire exceeds
	// Capacity × GapFactor. Above 1.0 means "over-committed beyond what
	// squish can absorb gracefully". Default 1.5.
	GapFactor float64
	// TripIntervals is how many consecutive saturated samples escalate the
	// ladder by one rung. Default 25 (250 ms at the 10 ms interval).
	TripIntervals int
	// RecoverIntervals is how many consecutive healthy samples de-escalate
	// by one rung — the bounded-recovery clock. Default 50.
	RecoverIntervals int
	// ShedBatch is how many jobs the Shed rung kills per interval while
	// the recovery band has not cleared. Default 1.
	ShedBatch int
}

// withDefaults resolves zero fields to defaults.
func (c Config) withDefaults() Config {
	if c.GapFactor <= 0 {
		c.GapFactor = 1.5
	}
	if c.TripIntervals <= 0 {
		c.TripIntervals = 25
	}
	if c.RecoverIntervals <= 0 {
		c.RecoverIntervals = 50
	}
	if c.ShedBatch <= 0 {
		c.ShedBatch = 1
	}
	return c
}

// Signals is one interval's saturation evidence, gathered by the
// controller at the end of its allocation pass.
type Signals struct {
	// Desired is the summed demand in ppt: reservations plus every
	// adaptive job's desire before squishing.
	Desired int
	// Granted is the summed allocation in ppt actually handed out.
	Granted int
	// Capacity is the machine's allocatable budget in ppt (the effective
	// overload threshold across all CPUs).
	Capacity int
}

// Decision is what the controller must do after one Observe call.
type Decision struct {
	// Rung is the ladder position after this sample.
	Rung Rung
	// From is the previous rung; From != Rung means the ladder moved.
	From Rung
	// Shed is how many jobs to shed this interval: nonzero only at Shed
	// rung and above, while the sample has not cleared the recovery band.
	Shed int
	// Saturated reports how this sample was judged.
	Saturated bool
}

// Changed reports whether the ladder moved on this sample.
func (d Decision) Changed() bool { return d.Rung != d.From }

// Governor is the ladder state machine. Not safe for concurrent use; the
// controller owns it and calls Observe from its step.
type Governor struct {
	cfg Config

	rung      Rung
	satStreak int
	okStreak  int
}

// New creates a governor at the normal rung.
func New(cfg Config) *Governor {
	return &Governor{cfg: cfg.withDefaults()}
}

// Rung returns the current ladder position.
func (g *Governor) Rung() Rung { return g.rung }

// saturated judges one sample against the trip band scaled by factor:
// factor 1.0 is the escalation band; the recovery test uses a smaller
// factor so the ladder only unwinds once demand has clearly subsided.
func (g *Governor) saturated(s Signals, factor float64) bool {
	if s.Capacity <= 0 {
		// A machine with no allocatable budget is saturated by definition
		// whenever anything wants CPU.
		return s.Desired > 0
	}
	gap := float64(s.Desired) > float64(s.Capacity)*g.cfg.GapFactor*factor
	if !gap {
		return false
	}
	// Demand alone is not enough: jobs must actually be compressed.
	if s.Desired <= 0 {
		return false
	}
	return float64(s.Granted)/float64(s.Desired) < SquishTrip
}

// recoveryBand shrinks the demand trip for the healthy test, providing the
// hysteresis gap between "stop escalating" and "start recovering".
const recoveryBand = 0.8

// Observe feeds one interval's signals and returns what to do. Escalation
// and de-escalation both move exactly one rung per decision (bounded
// recovery), and a streak must rebuild from zero after every move.
func (g *Governor) Observe(s Signals) Decision {
	d := Decision{From: g.rung}
	sat := g.saturated(s, 1.0)
	healthy := !g.saturated(s, recoveryBand)
	switch {
	case sat:
		g.satStreak++
		g.okStreak = 0
	case healthy:
		g.okStreak++
		g.satStreak = 0
	default:
		// The dead zone between the trip and recovery bands: hold position.
		g.satStreak = 0
		g.okStreak = 0
	}
	if sat && g.satStreak >= g.cfg.TripIntervals && g.rung < Freeze {
		g.rung++
		g.satStreak = 0
	}
	if !sat && g.okStreak >= g.cfg.RecoverIntervals && g.rung > Normal {
		g.rung--
		g.okStreak = 0
	}
	d.Rung = g.rung
	d.Saturated = sat
	// The shed rung keeps shedding until the system clears the RECOVERY
	// band, not merely the trip band. Shedding only while fully saturated
	// would strand the ladder in the dead zone between the two bands:
	// demand too low to escalate or shed further, too high to ever count
	// healthy — brownout without bounded recovery. Shedding to the
	// low-water mark guarantees the ladder unwinds once the storm passes.
	if !healthy && g.rung >= Shed {
		d.Shed = g.cfg.ShedBatch
	}
	return d
}

// MaxRetryAfter caps the backpressure hint: past it a longer wait carries
// no information (a storm either clears within seconds or the caller
// should give up), and an unbounded product of interval × rung ×
// RecoverIntervals could overflow into a zero or negative hint under
// adversarial tuning — a poisoned hint that reads as "retry now" to every
// refused caller at once, exactly when the ladder is at freeze.
const MaxRetryAfter = 10 * sim.Second

// RetryAfter computes the backpressure hint handed to throttled callers:
// the governor cannot possibly unwind the current rung in less than
// rung × RecoverIntervals healthy intervals, so that is the earliest a
// retry could be admitted. The hint is always positive and bounded:
// never less than one interval, never more than MaxRetryAfter, for any
// rung × RecoverIntervals × interval combination.
func (g *Governor) RetryAfter(interval sim.Duration) sim.Duration {
	if interval <= 0 || interval > MaxRetryAfter {
		interval = 10 * sim.Millisecond
	}
	maxSteps := int64(MaxRetryAfter / interval) // ≥ 1: interval ≤ MaxRetryAfter
	ri := int64(g.cfg.RecoverIntervals)
	if ri < 1 {
		ri = 1
	}
	if ri > maxSteps {
		// Clamp before multiplying by the rung: RecoverIntervals alone can
		// sit near MaxInt64, where even steps := rung × ri overflows.
		return MaxRetryAfter
	}
	steps := int64(g.rung) * ri // rung ≤ 3, ri ≤ 1e10: no overflow
	if steps < 1 {
		steps = 1
	}
	if steps > maxSteps {
		return MaxRetryAfter
	}
	return interval * sim.Duration(steps)
}
