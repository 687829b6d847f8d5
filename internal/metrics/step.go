package metrics

import "repro/internal/sim"

// StepResponse describes how a measured signal reacted to a step change in
// its set point at time StepAt. The paper reports that the controller takes
// "roughly 1/3 of a second to respond to the doubling in production rate"
// (Figure 6); RiseTime quantifies that.
type StepResponse struct {
	StepAt    sim.Time
	From, To  float64      // signal levels before / target after the step
	RiseTime  sim.Duration // time to first reach 90% of the step
	Settled   bool         // signal reached the 90% band within the window
	Overshoot float64      // max excursion past To, as a fraction of the step
}

// MeasureStep analyzes how series s responds to a step from `from` to `to`
// that occurs at stepAt, considering samples in [stepAt, deadline].
func MeasureStep(s *Series, stepAt sim.Time, from, to float64, deadline sim.Time) StepResponse {
	r := StepResponse{StepAt: stepAt, From: from, To: to}
	step := to - from
	if step == 0 {
		r.Settled = true
		return r
	}
	target := from + 0.9*step
	var maxPast float64
	for _, p := range s.Points() {
		if p.T < stepAt {
			continue
		}
		if p.T > deadline {
			break
		}
		reached := (step > 0 && p.V >= target) || (step < 0 && p.V <= target)
		if reached && !r.Settled {
			r.Settled = true
			r.RiseTime = p.T.Sub(stepAt)
		}
		past := (p.V - to) / step // positive = beyond the target
		if past > maxPast {
			maxPast = past
		}
	}
	r.Overshoot = maxPast
	return r
}
