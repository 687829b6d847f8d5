package core

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// adaptPeriod implements §3.3's period heuristic for aperiodic real-rate
// jobs: "a simple heuristic which increases the period to reduce
// quantization error when the proportion is small, since the dispatcher can
// only allocate multiples of the dispatch interval. The controller
// decreases the period to reduce jitter, which we detect via large
// oscillations relative to the buffer size", where oscillation is "the
// amount of change in fill-level over the course of a period, averaged over
// several periods".
//
// The paper disabled this heuristic in all its experiments; we implement it
// (and benchmark it as an ablation) but leave it off by default too.
func (c *Controller) adaptPeriod(j *Job, now sim.Time) {
	if j.periodFixed || j.class != RealRate {
		return
	}
	tick := c.kern.Config().TickInterval

	// Jitter: mean peak-to-peak swing of the fill signal per period,
	// averaged over the last several periods. The fill series stores the
	// summed pressure in [-1/2, 1/2], so amplitude 1.0 = the whole buffer.
	var amp float64
	if j.fill != nil && j.fill.Len() >= 4 {
		window := j.period
		from := now.Add(-sim.Duration(8) * window)
		if from < 0 {
			from = 0
		}
		amp = metrics.OscillationAmplitude(j.fill, from, now, window)
	}
	if amp > JitterThreshold {
		if halved := j.period / 2; halved >= MinPeriod {
			j.period = halved
		}
		return
	}

	// Quantization: the budget should span at least MinBudgetTicks
	// dispatch intervals, or the thread's allocation rounds badly. Grow
	// only while the fill is quiet (hysteresis against the jitter rule).
	budget := sim.Duration(int64(j.period) * int64(j.allocated) / pptDenom)
	if budget < sim.Duration(MinBudgetTicks)*tick && amp < JitterThreshold/2 {
		if doubled := j.period * 2; doubled <= c.cfg.MaxPeriod {
			j.period = doubled
		}
	}
}
