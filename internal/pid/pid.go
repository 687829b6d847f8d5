// Package pid implements the discrete proportional-integral-derivative
// controller the paper uses as its pressure filter G (§3.3, Figure 3): the
// summed progress pressures are passed through a PID control "to provide
// error reduction together with acceptable stability and damping"
// (Franklin, Powell, Emami-Naeini).
//
// The controller is built from SWiFT components (package swift), as the
// paper's prototype was built with the SWiFT feedback toolkit.
package pid

import "repro/internal/swift"

// Config holds the PID gains and conditioning parameters.
type Config struct {
	// Kp, Ki, Kd are the proportional, integral, and derivative gains.
	Kp, Ki, Kd float64
	// IntegralLo/IntegralHi, when IntegralHi > IntegralLo, clamp the
	// integral accumulator to that range (anti-windup). Otherwise it is
	// unlimited.
	IntegralLo, IntegralHi float64
	// DerivativeTau, when positive, low-pass filters the derivative leg with
	// the given time constant in seconds, taming sample noise.
	DerivativeTau float64
	// InputTau, when positive, low-pass filters the error before the PID
	// legs. The paper's controller relies on exactly this: "Using a
	// suitable low-pass filter, we can schedule jobs with reasonable
	// responsiveness and low overhead while keeping the sampling rate
	// reasonably high" (§4.1). Without it, instantaneous fill samples
	// alias against the budget/nap cycle of the dispatched thread.
	InputTau float64
	// OutLo/OutHi clamp the controller output when OutHi > OutLo.
	OutLo, OutHi float64
}

// Controller is a discrete PID controller. It is deliberately a plain
// struct stepped by the caller once per control interval; the simulation
// owns the clock.
// The SWiFT components are embedded by value, not held by pointer: a
// feedback controller is allocated per real-rate job, and an admission
// storm creates tens of thousands of them, so the whole assembly must be
// one allocation (and poolable as one object).
type Controller struct {
	cfg        Config
	integ      swift.Integrator
	deriv      swift.Differentiator
	dfilter    swift.LowPass
	efilter    swift.LowPass
	clamp      swift.Clamp
	hasDFilter bool
	hasEFilter bool
	hasClamp   bool
	lastOut    float64
}

// New returns a controller with the given configuration.
func New(cfg Config) *Controller {
	c := &Controller{
		cfg:   cfg,
		integ: swift.Integrator{LimitLo: cfg.IntegralLo, LimitHi: cfg.IntegralHi},
	}
	if cfg.DerivativeTau > 0 {
		c.dfilter = swift.LowPass{Tau: cfg.DerivativeTau}
		c.hasDFilter = true
	}
	if cfg.InputTau > 0 {
		c.efilter = swift.LowPass{Tau: cfg.InputTau}
		c.hasEFilter = true
	}
	if cfg.OutHi > cfg.OutLo {
		c.clamp = swift.Clamp{Lo: cfg.OutLo, Hi: cfg.OutHi}
		c.hasClamp = true
	}
	return c
}

// Step advances the controller one control interval of dt seconds with
// measured error err (set point minus measurement, or in the paper's terms
// the progress pressure), returning the new actuation value.
func (c *Controller) Step(err, dt float64) float64 {
	if c.hasEFilter {
		err = c.efilter.Step(err, dt)
	}
	p := c.cfg.Kp * err
	i := c.cfg.Ki * c.integ.Step(err, dt)
	d := c.deriv.Step(err, dt)
	if c.hasDFilter {
		d = c.dfilter.Step(d, dt)
	}
	out := p + i + c.cfg.Kd*d
	if c.hasClamp {
		out = c.clamp.Step(out, dt)
	}
	c.lastOut = out
	return out
}

// Output returns the most recent actuation value.
func (c *Controller) Output() float64 { return c.lastOut }

// Integral returns the current integral accumulator (before Ki scaling),
// exposed for tests and for the controller's reclamation path, which must
// bleed accumulated pressure when it decides an allocation was too generous.
func (c *Controller) Integral() float64 { return c.integ.Sum() }

// ScaleIntegral multiplies the integral accumulator by f. The proportion
// estimator uses this to implement the paper's "P − C" reduction: when the
// allocation overestimates need, the banked integral must shrink too or the
// controller would immediately undo the reduction.
func (c *Controller) ScaleIntegral(f float64) {
	cur := c.integ.Sum()
	c.integ.Reset()
	c.integ.Step(cur*f, 1)
}

// Reset returns the controller to its initial state.
func (c *Controller) Reset() {
	c.integ.Reset()
	c.deriv.Reset()
	if c.hasDFilter {
		c.dfilter.Reset()
	}
	if c.hasEFilter {
		c.efilter.Reset()
	}
	c.lastOut = 0
}
