// Package faults is a seeded, deterministic fault injector for the
// real-rate stack. A schedule of Specs declares windows of misbehavior —
// frozen or corrupted progress signals, timer-interrupt jitter, CPU stall
// windows, stuck threads, dropped or delayed actuations — and the kernel
// and controller consult the Injector at their existing decision points.
//
// Determinism is call-order independent: every randomized draw is a pure
// hash of (seed, spec index, target, simulated instant), never a shared
// sequential RNG, so the same schedule perturbs the same run identically
// no matter which subsystem happens to sample first. When no injector is
// installed the consulting code paths pay a single nil check.
package faults

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Kind enumerates the fault taxonomy (see DESIGN.md §8).
type Kind int

const (
	// FreezeSignal pins a job's summed progress pressure at the first
	// value observed inside the window — the stalled-pipeline signature
	// the controller's watchdog must detect.
	FreezeSignal Kind = iota
	// JumpSignal adds a hash-drawn perturbation in [−Mag, +Mag] to the
	// pressure each sample: a wildly non-monotonic signal.
	JumpSignal
	// BadSignal replaces the pressure with NaN, ±Inf, or −Mag — the
	// corrupted-custom-source case the sanitizer must reject.
	BadSignal
	// TickJitter delays each timer interrupt by a hash-drawn fraction of
	// the tick interval (up to Mag × interval).
	TickJitter
	// CPUStall makes one CPU skip every dispatch point inside the window:
	// it goes idle regardless of runnable work, exercising work-pull
	// recovery on its peers.
	CPUStall
	// StuckThread makes the target thread spin (consuming CPU in 1 ms
	// bursts) instead of running its program: run segments with no
	// progress.
	StuckThread
	// DropActuation silently discards the controller's reservation pushes
	// for the target inside the window.
	DropActuation
	// DelayActuation defers the controller's reservation pushes for the
	// target to the next control interval.
	DelayActuation
)

func (k Kind) String() string {
	switch k {
	case FreezeSignal:
		return "freeze-signal"
	case JumpSignal:
		return "jump-signal"
	case BadSignal:
		return "bad-signal"
	case TickJitter:
		return "tick-jitter"
	case CPUStall:
		return "cpu-stall"
	case StuckThread:
		return "stuck-thread"
	case DropActuation:
		return "drop-actuation"
	case DelayActuation:
		return "delay-actuation"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Spec is one scheduled fault: a Kind active on [At, At+For), aimed at a
// thread name (signal/thread/actuation kinds; "" matches every thread) or
// a CPU (CPUStall), with a kind-specific magnitude.
type Spec struct {
	Kind   Kind
	Target string
	CPU    int
	At     sim.Time
	For    sim.Duration
	// Mag is the kind-specific magnitude: the perturbation bound for
	// JumpSignal, the replacement magnitude for BadSignal, the maximum
	// delay as a fraction of the tick interval for TickJitter. Unused by
	// the window-only kinds.
	Mag float64
}

// active reports whether the spec's window covers now.
func (s *Spec) active(now sim.Time) bool {
	return now >= s.At && now < s.At.Add(s.For)
}

// Event records the first injection of one spec, for observers.
type Event struct {
	Time   sim.Time
	Kind   Kind
	Target string
	CPU    int
	Spec   int // index into the schedule
}

// Injector evaluates a fault schedule. All methods are cheap enough for
// the kernel tick path: a linear scan over the (small) schedule with a
// window test per spec.
type Injector struct {
	seed  uint64
	specs []Spec
	// fired marks specs whose first injection has been announced.
	fired   []bool
	onEvent func(Event)

	injected uint64
	// frozen records the first pressure seen per (spec, target) inside a
	// FreezeSignal window.
	frozen map[frozenKey]float64
}

type frozenKey struct {
	spec   int
	target string
}

// New builds an injector for the given schedule. The schedule is copied.
// onEvent, when non-nil, fires once per spec, at its first actual
// injection (not merely when its window opens).
func New(seed uint64, specs []Spec, onEvent func(Event)) *Injector {
	return &Injector{
		seed:    seed,
		specs:   append([]Spec(nil), specs...),
		fired:   make([]bool, len(specs)),
		onEvent: onEvent,
		frozen:  make(map[frozenKey]float64),
	}
}

// Specs returns the schedule. The slice must not be modified.
func (in *Injector) Specs() []Spec { return in.specs }

// Injected returns the total number of individual injections performed
// (every perturbed sample, skipped dispatch point, jittered tick, stolen
// program step, and dropped or delayed actuation).
func (in *Injector) Injected() uint64 { return in.injected }

// fire announces spec i's first injection and counts the injection.
func (in *Injector) fire(i int, now sim.Time, target string, cpu int) {
	in.injected++
	if in.fired[i] {
		return
	}
	in.fired[i] = true
	if in.onEvent != nil {
		in.onEvent(Event{Time: now, Kind: in.specs[i].Kind, Target: target, CPU: cpu, Spec: i})
	}
}

// mix is the splitmix64 finalizer: the stateless hash behind every draw.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// draw hashes (seed, spec, target, now) to a uniform uint64.
func (in *Injector) draw(spec int, target string, now sim.Time) uint64 {
	h := mix(in.seed ^ uint64(spec)*0x9E3779B97F4A7C15)
	for i := 0; i < len(target); i++ {
		h = mix(h ^ uint64(target[i]))
	}
	return mix(h ^ uint64(now))
}

// unit maps a draw to [0, 1).
func unit(u uint64) float64 { return float64(u>>11) / (1 << 53) }

// matches reports whether the spec aims at the named thread.
func (s *Spec) matches(target string) bool {
	return s.Target == "" || s.Target == target
}

// PerturbPressure applies every active signal fault aimed at target to the
// summed pressure p, returning the (possibly non-finite) corrupted value.
// The controller calls it before its own sanitizer, so injected NaN/Inf
// exercises the rejection path rather than bypassing it.
func (in *Injector) PerturbPressure(target string, now sim.Time, p float64) float64 {
	for i := range in.specs {
		s := &in.specs[i]
		if !s.active(now) || !s.matches(target) {
			continue
		}
		switch s.Kind {
		case FreezeSignal:
			k := frozenKey{spec: i, target: target}
			v, seen := in.frozen[k]
			if !seen {
				v = p
				in.frozen[k] = v
			}
			p = v
			in.fire(i, now, target, -1)
		case JumpSignal:
			p += (2*unit(in.draw(i, target, now)) - 1) * s.Mag
			in.fire(i, now, target, -1)
		case BadSignal:
			switch in.draw(i, target, now) % 4 {
			case 0:
				p = math.NaN()
			case 1:
				p = math.Inf(1)
			case 2:
				p = math.Inf(-1)
			default:
				p = -s.Mag
			}
			in.fire(i, now, target, -1)
		}
	}
	return p
}

// TickDelay returns the extra delay to add to the next timer interrupt.
func (in *Injector) TickDelay(now sim.Time, interval sim.Duration) sim.Duration {
	var d sim.Duration
	for i := range in.specs {
		s := &in.specs[i]
		if s.Kind != TickJitter || !s.active(now) {
			continue
		}
		d += sim.Duration(unit(in.draw(i, "", now)) * s.Mag * float64(interval))
		in.fire(i, now, "", -1)
	}
	return d
}

// CPUStalled reports whether the given CPU must skip this dispatch point.
func (in *Injector) CPUStalled(cpu int, now sim.Time) bool {
	for i := range in.specs {
		s := &in.specs[i]
		if s.Kind != CPUStall || s.CPU != cpu || !s.active(now) {
			continue
		}
		in.fire(i, now, "", cpu)
		return true
	}
	return false
}

// ThreadStuck reports whether the named thread's program is hijacked into
// a progress-free spin at this instant.
func (in *Injector) ThreadStuck(target string, now sim.Time) bool {
	for i := range in.specs {
		s := &in.specs[i]
		if s.Kind != StuckThread || !s.active(now) || !s.matches(target) {
			continue
		}
		in.fire(i, now, target, -1)
		return true
	}
	return false
}

// ActuationFault reports whether an actuation for the named thread must be
// dropped or delayed at this instant. Drop wins when both windows overlap.
func (in *Injector) ActuationFault(target string, now sim.Time) (drop, delay bool) {
	for i := range in.specs {
		s := &in.specs[i]
		if !s.active(now) || !s.matches(target) {
			continue
		}
		switch s.Kind {
		case DropActuation:
			in.fire(i, now, target, -1)
			drop = true
		case DelayActuation:
			in.fire(i, now, target, -1)
			delay = true
		}
	}
	if drop {
		delay = false
	}
	return drop, delay
}
