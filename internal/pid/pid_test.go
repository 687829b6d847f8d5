package pid

import (
	"math"
	"testing"
	"testing/quick"
)

func TestProportionalOnly(t *testing.T) {
	c := New(Config{Kp: 2})
	if out := c.Step(3, 0.01); out != 6 {
		t.Fatalf("P-only output = %v, want 6", out)
	}
	if out := c.Step(-1, 0.01); out != -2 {
		t.Fatalf("P-only output = %v, want -2", out)
	}
}

func TestIntegralAccumulates(t *testing.T) {
	c := New(Config{Ki: 1})
	var out float64
	for i := 0; i < 100; i++ {
		out = c.Step(1, 0.01)
	}
	if math.Abs(out-1) > 1e-9 {
		t.Fatalf("I output after 1s of unit error = %v, want 1", out)
	}
}

func TestIntegralHoldsAtZeroError(t *testing.T) {
	// The defining property the paper relies on: at steady state (pressure
	// = 0) the allocation must hold, not decay, so the integral term carries
	// the equilibrium allocation.
	c := New(Config{Kp: 1, Ki: 1})
	for i := 0; i < 100; i++ {
		c.Step(0.5, 0.01)
	}
	held := c.Step(0, 0.01)
	if held <= 0.4 {
		t.Fatalf("output decayed to %v at zero error; integral should hold", held)
	}
	again := c.Step(0, 0.01)
	if math.Abs(again-held) > 1e-12 {
		t.Fatalf("output drifted from %v to %v at zero error", held, again)
	}
}

func TestDerivativeRespondsToChange(t *testing.T) {
	c := New(Config{Kd: 0.1})
	c.Step(0, 0.01)
	out := c.Step(1, 0.01) // derivative = 100, Kd·d = 10
	if math.Abs(out-10) > 1e-9 {
		t.Fatalf("D output = %v, want 10", out)
	}
}

func TestDerivativeFilterTamesSpike(t *testing.T) {
	raw := New(Config{Kd: 0.1})
	filt := New(Config{Kd: 0.1, DerivativeTau: 0.05})
	raw.Step(0, 0.01)
	filt.Step(0, 0.01)
	rawOut := raw.Step(1, 0.01)
	filtOut := filt.Step(1, 0.01)
	if filtOut >= rawOut {
		t.Fatalf("filtered derivative %v not smaller than raw %v", filtOut, rawOut)
	}
}

func TestOutputClamp(t *testing.T) {
	c := New(Config{Kp: 100, OutLo: -1, OutHi: 1})
	if out := c.Step(50, 0.01); out != 1 {
		t.Fatalf("clamped output = %v, want 1", out)
	}
	if out := c.Step(-50, 0.01); out != -1 {
		t.Fatalf("clamped output = %v, want -1", out)
	}
}

func TestAntiWindup(t *testing.T) {
	bounded := New(Config{Ki: 1, IntegralLo: -1, IntegralHi: 1, OutLo: -1, OutHi: 1})
	for i := 0; i < 10000; i++ {
		bounded.Step(10, 0.01)
	}
	// After saturation ends, a bounded integrator must unwind quickly.
	steps := 0
	for bounded.Step(-10, 0.01) > 0 {
		steps++
		if steps > 100 {
			t.Fatalf("anti-windup failed: output still positive after %d reverse steps", steps)
		}
	}
}

func TestScaleIntegral(t *testing.T) {
	c := New(Config{Ki: 1})
	for i := 0; i < 100; i++ {
		c.Step(1, 0.01) // integral = 1
	}
	c.ScaleIntegral(0.5)
	if math.Abs(c.Integral()-0.5) > 1e-9 {
		t.Fatalf("scaled integral = %v, want 0.5", c.Integral())
	}
}

func TestReset(t *testing.T) {
	c := New(Config{Kp: 1, Ki: 1, Kd: 1, DerivativeTau: 0.1})
	for i := 0; i < 50; i++ {
		c.Step(1, 0.01)
	}
	c.Reset()
	if c.Integral() != 0 || c.Output() != 0 {
		t.Fatal("Reset left state behind")
	}
	if out := c.Step(0, 0.01); out != 0 {
		t.Fatalf("post-reset zero-error output = %v", out)
	}
}

func TestClosedLoopConvergence(t *testing.T) {
	// Control a trivial plant: level' = (input - drain). The PI controller
	// must drive the level to the set point and keep it there.
	c := New(Config{Kp: 2, Ki: 4, OutLo: 0, OutHi: 10})
	const (
		dt       = 0.01
		drain    = 1.0
		setPoint = 5.0
	)
	level := 0.0
	for i := 0; i < 5000; i++ {
		in := c.Step(setPoint-level, dt)
		level += (in - drain) * dt
	}
	if math.Abs(level-setPoint) > 0.05 {
		t.Fatalf("closed loop settled at %v, want %v", level, setPoint)
	}
}

// Property: P-only controller output is linear in the error.
func TestPropertyProportionalLinearity(t *testing.T) {
	f := func(e1, e2 int16) bool {
		c1 := New(Config{Kp: 3})
		c2 := New(Config{Kp: 3})
		c3 := New(Config{Kp: 3})
		a := c1.Step(float64(e1), 0.01)
		b := c2.Step(float64(e2), 0.01)
		ab := c3.Step(float64(e1)+float64(e2), 0.01)
		return math.Abs((a+b)-ab) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: output always honors the clamp.
func TestPropertyClampAlwaysHolds(t *testing.T) {
	c := New(Config{Kp: 5, Ki: 3, Kd: 0.5, OutLo: -2, OutHi: 2})
	f := func(errs []int8) bool {
		for _, e := range errs {
			out := c.Step(float64(e), 0.01)
			if out < -2 || out > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
