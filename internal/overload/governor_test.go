package overload

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/sim"
)

// quick is a small, fast-tripping config for tests.
func quick() Config {
	return Config{TripIntervals: 3, RecoverIntervals: 4}
}

// sat is a clearly saturated sample: demand 2× capacity, squished hard.
func sat() Signals {
	return Signals{Desired: 1800, Granted: 850, Capacity: 900}
}

// idle is a clearly healthy sample.
func idle() Signals {
	return Signals{Desired: 300, Granted: 300, Capacity: 900}
}

func TestLadderStartsNormal(t *testing.T) {
	g := New(Config{})
	if g.Rung() != Normal {
		t.Fatalf("new governor at rung %v, want normal", g.Rung())
	}
	d := g.Observe(idle())
	if d.Rung != Normal || d.Changed() || d.Shed != 0 {
		t.Fatalf("healthy sample moved the ladder: %+v", d)
	}
}

func TestEscalationNeedsStreak(t *testing.T) {
	g := New(quick())
	// Two saturated samples, then a healthy one, resets the streak.
	g.Observe(sat())
	g.Observe(sat())
	g.Observe(idle())
	for i := 0; i < 2; i++ {
		if d := g.Observe(sat()); d.Changed() {
			t.Fatalf("escalated after broken streak at sample %d", i)
		}
	}
	d := g.Observe(sat())
	if !d.Changed() || d.Rung != Throttle {
		t.Fatalf("want normal→throttle on third consecutive saturated sample, got %+v", d)
	}
}

func TestLadderClimbsOneRungAtATime(t *testing.T) {
	g := New(quick())
	want := []Rung{Throttle, Shed, Freeze}
	var moves []Rung
	for i := 0; i < 20; i++ {
		d := g.Observe(sat())
		if d.Changed() {
			if d.Rung != d.From+1 {
				t.Fatalf("ladder jumped %v→%v", d.From, d.Rung)
			}
			moves = append(moves, d.Rung)
		}
	}
	if len(moves) != len(want) {
		t.Fatalf("got moves %v, want %v", moves, want)
	}
	for i := range want {
		if moves[i] != want[i] {
			t.Fatalf("got moves %v, want %v", moves, want)
		}
	}
	// Saturated at the top rung: stays put.
	if d := g.Observe(sat()); d.Changed() || d.Rung != Freeze {
		t.Fatalf("freeze rung moved under saturation: %+v", d)
	}
}

func TestShedOnlyAtShedRungWhileSaturated(t *testing.T) {
	g := New(quick())
	for g.Rung() < Shed {
		if d := g.Observe(sat()); d.Rung < Shed && d.Shed != 0 {
			t.Fatalf("shed request at rung %v", d.Rung)
		}
	}
	if d := g.Observe(sat()); d.Shed != 1 {
		t.Fatalf("want 1 shed per saturated interval at shed rung, got %d", d.Shed)
	}
	// A healthy sample at the shed rung must not shed.
	if d := g.Observe(idle()); d.Shed != 0 {
		t.Fatalf("shed on healthy sample: %+v", d)
	}
}

// TestShedClearsDeadZone pins the bounded-recovery guarantee: at the shed
// rung, a sample in the dead zone between the recovery band and the trip
// band still sheds. Without it the ladder can strand — demand too low to
// escalate, too high to ever count healthy — and never unwind.
func TestShedClearsDeadZone(t *testing.T) {
	g := New(quick())
	for g.Rung() < Shed {
		g.Observe(sat())
	}
	// Desired 1300 on capacity 900: above the 0.8×1.5 recovery band
	// (1080) but below the 1.5 trip (1350); granted 850 keeps the
	// compression ratio under the 0.75 squish trip.
	dead := Signals{Desired: 1300, Granted: 850, Capacity: 900}
	for i := 0; i < 10; i++ {
		d := g.Observe(dead)
		if d.Changed() {
			t.Fatalf("dead-zone sample moved the ladder: %+v", d)
		}
		if d.Saturated {
			t.Fatalf("dead-zone sample judged saturated: %+v", d)
		}
		if d.Shed != 1 {
			t.Fatalf("dead-zone sample at shed rung did not shed: %+v", d)
		}
	}
}

func TestBoundedRecovery(t *testing.T) {
	g := New(quick())
	for g.Rung() < Freeze {
		g.Observe(sat())
	}
	var steps int
	for g.Rung() != Normal {
		d := g.Observe(idle())
		if d.Changed() && d.Rung != d.From-1 {
			t.Fatalf("recovery jumped %v→%v", d.From, d.Rung)
		}
		steps++
		if steps > 100 {
			t.Fatal("ladder wedged above normal under sustained healthy samples")
		}
	}
	// Each rung needs RecoverIntervals healthy samples: 3 rungs × 4.
	if steps != 12 {
		t.Fatalf("recovered in %d healthy samples, want 12", steps)
	}
}

func TestDeadZoneHoldsPosition(t *testing.T) {
	g := New(quick())
	for g.Rung() < Throttle {
		g.Observe(sat())
	}
	// Demand between the recovery band (0.8×1.5 = 1.2×) and the trip band
	// (1.5×), still squished: neither saturated nor healthy.
	mid := Signals{Desired: 1200, Granted: 850, Capacity: 900}
	for i := 0; i < 50; i++ {
		if d := g.Observe(mid); d.Changed() {
			t.Fatalf("dead-zone sample moved the ladder: %+v", d)
		}
	}
	if g.Rung() != Throttle {
		t.Fatalf("rung drifted to %v in the dead zone", g.Rung())
	}
}

func TestSquishRatioGatesDemandTrip(t *testing.T) {
	g := New(quick())
	// Huge demand but fully granted (idle big machine): not saturation.
	rich := Signals{Desired: 2000, Granted: 2000, Capacity: 900}
	for i := 0; i < 20; i++ {
		if d := g.Observe(rich); d.Rung != Normal {
			t.Fatalf("ungrudged demand tripped the ladder: %+v", d)
		}
	}
}

func TestRetryAfterScalesWithRung(t *testing.T) {
	g := New(quick())
	iv := 10 * sim.Millisecond
	if got := g.RetryAfter(iv); got != iv {
		t.Fatalf("normal-rung retry-after = %v, want one interval", got)
	}
	prev := g.RetryAfter(iv)
	for g.Rung() < Freeze {
		g.Observe(sat())
		if ra := g.RetryAfter(iv); ra < prev {
			t.Fatalf("retry-after shrank while escalating: %v < %v", ra, prev)
		} else {
			prev = ra
		}
	}
	// freeze = rung 3 × RecoverIntervals 4 × 10 ms.
	if got := g.RetryAfter(iv); got != 120*sim.Millisecond {
		t.Fatalf("freeze retry-after = %v, want 120ms", got)
	}
}

// TestRetryAfterPositiveBoundedAtFreeze is the session-storm rig: the slo
// family's steady state is a governed system refusing admissions at
// throttle-or-above, so every refusal carries a RetryAfter hint — and a
// hint that overflows to zero or negative under adversarial tuning would
// tell every refused caller to retry immediately, at the exact moment the
// ladder is at freeze. Drive the ladder to freeze under extreme
// RecoverIntervals and interval values and require the hint to stay in
// (0, MaxRetryAfter].
func TestRetryAfterPositiveBoundedAtFreeze(t *testing.T) {
	for _, ri := range []int{1, 4, 1 << 20, 1 << 40, math.MaxInt} {
		g := New(Config{TripIntervals: 1, RecoverIntervals: ri})
		for g.Rung() < Freeze {
			g.Observe(sat())
		}
		for _, iv := range []sim.Duration{
			-sim.Millisecond, 0, 1, 10 * sim.Millisecond,
			sim.Duration(math.MaxInt64),
		} {
			ra := g.RetryAfter(iv)
			if ra <= 0 {
				t.Fatalf("RecoverIntervals=%d interval=%v: retry-after %v not positive", ri, iv, ra)
			}
			if ra > MaxRetryAfter {
				t.Fatalf("RecoverIntervals=%d interval=%v: retry-after %v exceeds bound %v", ri, iv, ra, MaxRetryAfter)
			}
		}
	}
	// The clamp must not shift well-tuned hints: the quick() freeze value
	// is pinned by TestRetryAfterScalesWithRung above.
	g := New(quick())
	for g.Rung() < Freeze {
		g.Observe(sat())
	}
	if got := g.RetryAfter(10 * sim.Millisecond); got != 120*sim.Millisecond {
		t.Fatalf("clamped freeze retry-after = %v, want 120ms", got)
	}
}

func TestZeroCapacityMachine(t *testing.T) {
	g := New(quick())
	s := Signals{Desired: 100, Granted: 0, Capacity: 0}
	for i := 0; i < 10; i++ {
		g.Observe(s)
	}
	if g.Rung() == Normal {
		t.Fatal("zero-capacity machine with demand never tripped")
	}
}

// FuzzOverloadLadder drives the governor with arbitrary bounded load
// traces and asserts the ladder can never wedge: rungs stay in range,
// every move is a single step, and a long run of clearly healthy samples
// always walks it back to normal.
func FuzzOverloadLadder(f *testing.F) {
	f.Add([]byte{0x00}, uint8(3), uint8(4))
	f.Add([]byte{0xff, 0x80, 0x01, 0x7f}, uint8(1), uint8(1))
	f.Add([]byte{0x10, 0xf0, 0x10, 0xf0, 0x10, 0xf0}, uint8(2), uint8(3))
	// A storm long enough to climb every rung to Freeze, then calm: the
	// ladder must walk all the way back down.
	f.Add(append(bytes.Repeat([]byte{0xff}, 16), make([]byte, 8)...), uint8(3), uint8(4))
	f.Fuzz(func(t *testing.T, trace []byte, trip, recover uint8) {
		if len(trace) > 4096 {
			trace = trace[:4096]
		}
		cfg := Config{
			TripIntervals:    int(trip%16) + 1,
			RecoverIntervals: int(recover%16) + 1,
		}
		g := New(cfg)
		for i, b := range trace {
			// Each byte encodes one interval's load: demand scales to
			// [0, 4×capacity); grant is capped at capacity and at demand.
			desired := int(b) * 4 * 900 / 256
			granted := desired
			if granted > 900 {
				granted = 900
			}
			if i%3 == 1 && granted > 0 {
				granted = granted / 2 // squish harder on some samples
			}
			d := g.Observe(Signals{Desired: desired, Granted: granted, Capacity: 900})
			if d.Rung < Normal || d.Rung > Freeze {
				t.Fatalf("rung %v out of range", d.Rung)
			}
			if d.Changed() && d.Rung != d.From+1 && d.Rung != d.From-1 {
				t.Fatalf("ladder jumped %v→%v", d.From, d.Rung)
			}
			if d.Shed != 0 && d.Rung < Shed {
				t.Fatalf("shed request at rung %v", d.Rung)
			}
			if g.RetryAfter(10*sim.Millisecond) < 10*sim.Millisecond {
				t.Fatal("retry-after below one interval")
			}
		}
		// Recovery liveness: clearly healthy samples must always unwedge.
		calm := Signals{Desired: 0, Granted: 0, Capacity: 900}
		limit := (int(Freeze)+1)*cfg.RecoverIntervals + 1
		for i := 0; i < limit && g.Rung() != Normal; i++ {
			g.Observe(calm)
		}
		if g.Rung() != Normal {
			t.Fatalf("ladder wedged at %v after %d healthy samples", g.Rung(), limit)
		}
	})
}
