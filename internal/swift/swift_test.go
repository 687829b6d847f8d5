package swift

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIntegratorAccumulates(t *testing.T) {
	i := &Integrator{}
	var out float64
	for k := 0; k < 100; k++ {
		out = i.Step(1, 0.01) // integrate 1 for 1 second
	}
	if math.Abs(out-1) > 1e-9 {
		t.Fatalf("∫1 dt over 1s = %v, want 1", out)
	}
	i.Reset()
	if i.Sum() != 0 {
		t.Fatal("Reset did not clear integrator")
	}
}

func TestIntegratorAntiWindup(t *testing.T) {
	i := &Integrator{LimitLo: -0.5, LimitHi: 0.5}
	for k := 0; k < 1000; k++ {
		i.Step(10, 0.01)
	}
	if i.Sum() != 0.5 {
		t.Fatalf("clamped sum = %v, want 0.5", i.Sum())
	}
	for k := 0; k < 2000; k++ {
		i.Step(-10, 0.01)
	}
	if i.Sum() != -0.5 {
		t.Fatalf("clamped sum = %v, want -0.5", i.Sum())
	}
}

func TestDifferentiator(t *testing.T) {
	d := &Differentiator{}
	if out := d.Step(5, 0.01); out != 0 {
		t.Fatalf("first sample derivative = %v, want 0", out)
	}
	if out := d.Step(6, 0.01); math.Abs(out-100) > 1e-9 {
		t.Fatalf("d/dt = %v, want 100", out)
	}
	if out := d.Step(6, 0.01); out != 0 {
		t.Fatalf("flat derivative = %v, want 0", out)
	}
	d.Reset()
	if out := d.Step(100, 0.01); out != 0 {
		t.Fatalf("post-reset derivative = %v, want 0", out)
	}
}

func TestLowPassConvergesToStep(t *testing.T) {
	l := &LowPass{Tau: 0.1}
	l.Step(0, 0.01)
	var out float64
	for k := 0; k < 200; k++ { // 2 seconds = 20 time constants
		out = l.Step(1, 0.01)
	}
	if math.Abs(out-1) > 1e-6 {
		t.Fatalf("low-pass settled at %v, want 1", out)
	}
}

func TestLowPassFirstSamplePassesThrough(t *testing.T) {
	l := &LowPass{Tau: 0.1}
	if out := l.Step(42, 0.01); out != 42 {
		t.Fatalf("first sample = %v, want 42 (no initial transient)", out)
	}
}

func TestLowPassSmoothes(t *testing.T) {
	l := &LowPass{Tau: 0.5}
	l.Step(0, 0.01)
	// Alternate +1/-1: output should stay near 0, well inside [-1,1].
	var maxAbs float64
	in := 1.0
	for k := 0; k < 1000; k++ {
		out := l.Step(in, 0.01)
		in = -in
		if a := math.Abs(out); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs > 0.1 {
		t.Fatalf("low-pass output reached %v on alternating input", maxAbs)
	}
}

func TestClamp(t *testing.T) {
	c := &Clamp{Lo: -1, Hi: 1}
	cases := [][2]float64{{5, 1}, {-5, -1}, {0.5, 0.5}, {-1, -1}, {1, 1}}
	for _, tc := range cases {
		if out := c.Step(tc[0], 0.01); out != tc[1] {
			t.Fatalf("Clamp(%v) = %v, want %v", tc[0], out, tc[1])
		}
	}
}

// Property: integrating then differentiating a bounded signal approximately
// recovers it (up to the one-sample lag of the backward difference).
func TestPropertyIntegrateDifferentiate(t *testing.T) {
	f := func(samples []int8) bool {
		if len(samples) < 3 {
			return true
		}
		if len(samples) > 64 {
			samples = samples[:64]
		}
		const dt = 0.01
		i := &Integrator{}
		d := &Differentiator{}
		// Prime the differentiator with the first integrated sample.
		d.Step(i.Step(float64(samples[0]), dt), dt)
		for _, s := range samples[1:] {
			in := float64(s)
			got := d.Step(i.Step(in, dt), dt)
			if math.Abs(got-in) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Clamp output is always within bounds and idempotent.
func TestPropertyClampBounds(t *testing.T) {
	c := &Clamp{Lo: -2, Hi: 3}
	f := func(v float64) bool {
		if math.IsNaN(v) {
			return true
		}
		out := c.Step(v, 0)
		if out < -2 || out > 3 {
			return false
		}
		return c.Step(out, 0) == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
