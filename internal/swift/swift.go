// Package swift holds the feedback components of SWiFT (Goel, Steere, Pu,
// Walpole — OGI CSE-98-009), the toolkit the paper's controller is
// implemented with: an integrator, a differentiator, a low-pass filter and
// a clamp. Each transforms one sample per control interval. Package pid
// embeds them by value to build the paper's PID pressure filter G; nothing
// else composes them, so the toolkit's circuit plumbing is not reproduced.
package swift

// Integrator accumulates the input over time (rectangular rule).
// LimitLo/LimitHi, when set (LimitHi > LimitLo), clamp the accumulator to
// that range: the anti-windup guard that keeps the controller from banking
// unbounded error while actuation is saturated. The range may be
// asymmetric — a proportion allocator wants plenty of positive authority
// but almost no negative bank, or a long queue-empty stretch would delay
// the response to the next burst.
type Integrator struct {
	LimitLo, LimitHi float64
	sum              float64
}

// Step adds in·dt to the accumulator and returns it.
func (i *Integrator) Step(in, dt float64) float64 {
	i.sum += in * dt
	if i.LimitHi > i.LimitLo {
		if i.sum > i.LimitHi {
			i.sum = i.LimitHi
		} else if i.sum < i.LimitLo {
			i.sum = i.LimitLo
		}
	}
	return i.sum
}

// Reset zeroes the accumulator.
func (i *Integrator) Reset() { i.sum = 0 }

// Sum returns the current accumulated value without advancing the component.
func (i *Integrator) Sum() float64 { return i.sum }

// Differentiator emits the time-derivative of its input using a first-order
// backward difference.
type Differentiator struct {
	prev    float64
	started bool
}

// Step returns (in − prev)/dt, or 0 on the first sample.
func (d *Differentiator) Step(in, dt float64) float64 {
	if !d.started || dt <= 0 {
		d.prev = in
		d.started = true
		return 0
	}
	out := (in - d.prev) / dt
	d.prev = in
	return out
}

// Reset forgets the previous sample.
func (d *Differentiator) Reset() { d.prev = 0; d.started = false }

// LowPass is a single-pole exponential low-pass filter with time constant
// Tau (seconds). The paper notes a "suitable low-pass filter" lets the
// controller sample fast while staying smooth (§4.1).
type LowPass struct {
	Tau     float64
	state   float64
	started bool
}

// Step filters the input.
func (l *LowPass) Step(in, dt float64) float64 {
	if !l.started {
		l.state = in
		l.started = true
		return in
	}
	if l.Tau <= 0 {
		l.state = in
		return in
	}
	alpha := dt / (l.Tau + dt)
	l.state += alpha * (in - l.state)
	return l.state
}

// Reset forgets the filter state.
func (l *LowPass) Reset() { l.state = 0; l.started = false }

// Clamp limits the input to [Lo, Hi].
type Clamp struct{ Lo, Hi float64 }

// Step returns in clamped to [Lo, Hi].
func (c *Clamp) Step(in, _ float64) float64 {
	if in < c.Lo {
		return c.Lo
	}
	if in > c.Hi {
		return c.Hi
	}
	return in
}
