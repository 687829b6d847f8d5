// Package gen is the workload-breadth subsystem: a seeded, deterministic
// scenario generator that emits executable scenarios from declarative
// specs, and a cross-policy invariant harness that runs any generated
// scenario under every public scheduling policy and checks the conformance
// invariants that must hold regardless of discipline.
//
// The paper validates the feedback allocator on a handful of hand-built
// scenarios (pipeline, hog, interactive). Open-loop feedback-scheduling
// evaluations show closed-loop allocators behave qualitatively differently
// under arrival processes they did not shape, so the generator covers three
// axes the hand-built scenarios do not:
//
//   - open-loop arrival traces (Poisson, MMPP bursty, replayed CSV traces)
//     driving System.Spawn / thread exit through the public API;
//   - mixed tasksets (real-rate pipelines + reserved real-time +
//     interactive + paced + miscellaneous threads with drawn periods,
//     proportions, and queue depths);
//   - admission churn (high-rate Spawn/Kill/Renegotiate cycles near the
//     admission ceiling).
//
// Everything is derived from (family, seed) through the pinned sim.RNG, so
// a failing scenario is replayable from a single command line:
//
//	rrexp -gen -scenario churn -seed 17 -policy stride
package gen

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"

	realrate "repro"

	"repro/internal/sim"
)

// TaskKind classifies a generated task in the paper's Figure 2 taxonomy.
type TaskKind int

const (
	// KindMisc is a CPU-bound hog with no declared information.
	KindMisc TaskKind = iota
	// KindUnmanaged runs outside the controller entirely.
	KindUnmanaged
	// KindRealTime holds a proportion/period reservation and runs a
	// periodic burst sized to (most of) it.
	KindRealTime
	// KindInteractive blocks on a tty wait queue and handles periodic
	// events with short bursts.
	KindInteractive
	// KindPaced is a real-rate thread driven by a work-unit Pace source.
	KindPaced
)

func (k TaskKind) String() string {
	switch k {
	case KindMisc:
		return "misc"
	case KindUnmanaged:
		return "unmanaged"
	case KindRealTime:
		return "rt"
	case KindInteractive:
		return "interactive"
	case KindPaced:
		return "paced"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// parseKind is the inverse of TaskKind.String, for trace CSV decoding.
func parseKind(s string) (TaskKind, error) {
	switch s {
	case "misc":
		return KindMisc, nil
	case "unmanaged":
		return KindUnmanaged, nil
	case "rt":
		return KindRealTime, nil
	case "interactive":
		return KindInteractive, nil
	case "paced":
		return KindPaced, nil
	}
	return 0, fmt.Errorf("gen: unknown task kind %q", s)
}

// TasksetSpec sizes the initial mixed taskset. Per-task parameters
// (proportions, periods, bursts, queue depths) are drawn from the seed.
type TasksetSpec struct {
	// Pipelines is the number of real-rate pipelines: a reserved producer
	// feeding 1..MaxStages-1 real-rate stages through bounded queues.
	Pipelines int
	// MaxStages bounds the stages per pipeline (including the producer);
	// the generator draws 2..MaxStages.
	MaxStages int
	// RealTime is the number of reservation-holding periodic threads.
	RealTime int
	// Interactive is the number of tty-server threads (each paired with a
	// generated event source).
	Interactive int
	// Misc is the number of miscellaneous hogs. When PinnedHog is set the
	// first one is immortal and excluded from churn, which is what makes
	// the work-conservation invariant checkable.
	Misc int
	// Unmanaged is the number of hogs outside the controller.
	Unmanaged int
	// Paced is the number of real-rate threads driven by a work-unit pace.
	Paced int
	// PinnedHog marks the first misc hog immortal and unkillable.
	PinnedHog bool
	// PinnedPerCPU adds one immortal misc hog pinned to every CPU of the
	// machine (Spec.CPUs), anchoring the per-CPU work-conservation
	// invariant on SMP scenarios.
	PinnedPerCPU bool
}

// threads returns the rough initial thread count (pipelines count MaxStages).
func (t TasksetSpec) threads() int {
	return t.Pipelines*t.MaxStages + t.RealTime + t.Interactive + t.Misc + t.Unmanaged + t.Paced
}

// ArrivalProcess selects the open-loop arrival model.
type ArrivalProcess int

const (
	// NoArrivals: the taskset is fixed for the whole run.
	NoArrivals ArrivalProcess = iota
	// Poisson: exponential inter-arrival times at Rate per second.
	Poisson
	// MMPP: a two-phase Markov-modulated Poisson process alternating
	// between Rate (quiet) and BurstRate (burst) with exponential phase
	// sojourns of mean PhaseMean — the bursty web-serving shape.
	MMPP
	// Trace: the explicit arrival list in Trace, e.g. replayed from CSV.
	Trace
)

func (p ArrivalProcess) String() string {
	switch p {
	case NoArrivals:
		return "none"
	case Poisson:
		return "poisson"
	case MMPP:
		return "mmpp"
	case Trace:
		return "trace"
	default:
		return fmt.Sprintf("process(%d)", int(p))
	}
}

// Arrival is one open-loop task arrival.
type Arrival struct {
	At   time.Duration
	Kind TaskKind
}

// ArrivalSpec describes the open-loop arrival process.
type ArrivalSpec struct {
	Process   ArrivalProcess
	Rate      float64       // arrivals/sec (Poisson, and MMPP quiet phase)
	BurstRate float64       // arrivals/sec in the MMPP burst phase
	PhaseMean time.Duration // mean MMPP phase sojourn
	Trace     []Arrival     // explicit arrivals when Process == Trace
	// MeanLife is the mean exponential lifetime of arrived tasks; 0 means
	// they run to the end of the scenario.
	MeanLife time.Duration
	// Mix weights the kinds of arriving tasks; zero value defaults to
	// miscellaneous only.
	Mix []TaskKind
}

// ChurnSpec describes admission-churn stress: timed Spawn/Kill/Renegotiate
// cycles near the admission ceiling.
type ChurnSpec struct {
	// Rate is churn operations per second (0 disables churn).
	Rate float64
	// ReserveLo/ReserveHi bound the proportions (ppt) churn-spawned
	// reservations request; drawing near the ceiling forces rejections.
	ReserveLo, ReserveHi int
}

// SessionSpec describes the slo family's live-service workload: per-user
// sessions arriving open-loop at high rate (Poisson base + MMPP bursts +
// a diurnal envelope over simulated time), each a short multi-stage
// pipeline (ingest → transform → deliver) of threads in one job, chained
// through bounded queues, and measured against an end-to-end latency SLO
// recorded via System.ObserveSessionLatency.
type SessionSpec struct {
	// Rate is the base session arrival rate in sessions/sec (0 disables
	// sessions entirely — the zero value changes nothing for the other
	// families).
	Rate float64
	// BurstRate is the MMPP burst-phase arrival rate; at or below Rate
	// (or with PhaseMean 0) the process is pure Poisson.
	BurstRate float64
	// PhaseMean is the mean exponential MMPP phase sojourn.
	PhaseMean time.Duration
	// Diurnal is the amplitude in [0, 0.95] of a sinusoidal envelope over
	// the instantaneous arrival rate — a live service's compressed "day".
	// 0 disables the envelope. Its period is the run length.
	Diurnal float64
	// Stages is the pipeline depth per session, at least 2: an ingest
	// producer, Stages-2 transforms, and a delivering consumer.
	Stages int
	// Bytes is the payload each session pushes through its pipeline;
	// Chunk is the per-op granularity (both in bytes).
	Bytes, Chunk int64
	// Work is the per-chunk compute burst, in cycles, at each stage.
	Work int64
	// Deadline is the per-session end-to-end SLO the run's attainment is
	// measured against (it becomes OverloadConfig.SessionSLO).
	Deadline time.Duration
	// BestEffort is the fraction in [0, 1] of sessions spawned as
	// miscellaneous-class jobs — the shed rung's eligible victims, in
	// drawn-importance order; the rest are real-rate and never shed.
	BestEffort float64
	// MaxImportance bounds each session's drawn importance (min 1).
	MaxImportance int
	// MaxLive is the accept-backlog bound: a session arriving while
	// MaxLive sessions are already in flight is refused outright, before
	// any thread or queue exists — the front-end listen-queue drop that
	// applies under every policy, controller or not. 0 means unbounded.
	MaxLive int
}

// enabled reports whether the spec describes any sessions at all.
func (s SessionSpec) enabled() bool { return s.Rate > 0 }

// Spec is the declarative description of one generated scenario. Given the
// same Spec (same seed), Generate produces the same Scenario, and running
// it under the same policy produces a byte-identical dispatch trace.
type Spec struct {
	// Family names the generator family that drew this spec ("" for a
	// hand-built spec); it appears in names and replay command lines.
	Family string
	// Seed drives every draw.
	Seed uint64
	// Duration is the simulated run length.
	Duration time.Duration
	// CPUs is the machine's CPU count (0 means 1). The smp family draws
	// it; every family accepts an override (rrexp -cpus).
	CPUs     int
	Taskset  TasksetSpec
	Arrivals ArrivalSpec
	Churn    ChurnSpec
	// Faults is the drawn fault-injection schedule (the faults family).
	// It is fully determined by (Family, Seed), so replay regenerates it
	// instead of carrying it through the trace codec.
	Faults []realrate.FaultSpec
	// Overload marks the overload family: the runner installs a
	// fast-tripping overload governor, the generator draws misc
	// importances and hard-clamps arrival lifetimes, and the checker arms
	// the brownout-ladder oracles.
	Overload bool
	// Sessions describes the slo family's open-loop session workload
	// (zero Rate disables it). A session-bearing spec arms a lenient
	// governor in the runner and the session oracles in the checker, but
	// not the overload family's recovers-to-normal-by-end oracle —
	// session arrivals run to the end of the scenario.
	Sessions SessionSpec
}

// NumCPUs returns the normalized CPU count (at least 1).
func (s Spec) NumCPUs() int {
	if s.CPUs < 1 {
		return 1
	}
	return s.CPUs
}

// Scale returns a copy of the spec with taskset counts, arrival rates, and
// churn rates multiplied by f (0 < f <= 1). The shrinker uses it to
// minimize failing scenarios along an axis replayable from the command
// line (rrexp -gen ... -scale f).
func (s Spec) Scale(f float64) Spec {
	if f <= 0 || f > 1 {
		panic("gen: scale must be in (0, 1]")
	}
	sc := func(n int) int {
		if n == 0 {
			return 0
		}
		m := int(float64(n) * f)
		if m < 1 {
			m = 1
		}
		return m
	}
	s.Taskset.Pipelines = sc(s.Taskset.Pipelines)
	s.Taskset.RealTime = sc(s.Taskset.RealTime)
	s.Taskset.Interactive = sc(s.Taskset.Interactive)
	s.Taskset.Misc = sc(s.Taskset.Misc)
	s.Taskset.Unmanaged = sc(s.Taskset.Unmanaged)
	s.Taskset.Paced = sc(s.Taskset.Paced)
	s.Arrivals.Rate *= f
	s.Arrivals.BurstRate *= f
	s.Churn.Rate *= f
	s.Sessions.Rate *= f
	s.Sessions.BurstRate *= f
	if s.Arrivals.Process == Trace {
		keep := int(float64(len(s.Arrivals.Trace)) * f)
		s.Arrivals.Trace = s.Arrivals.Trace[:keep]
	}
	return s
}

// Families lists the scenario families ForSeed accepts, in a fixed order.
func Families() []string {
	return []string{"pipeline", "mixed", "openloop", "bursty", "churn", "trace", "smp", "faults", "overload", "slo"}
}

// ForSeed derives the declarative spec for one (family, seed) point. Every
// parameter is drawn from the pinned RNG, so the mapping is stable across
// runs and platforms.
func ForSeed(family string, seed uint64) (Spec, error) {
	// Separate the family streams: the same seed must not produce
	// correlated draws across families.
	var fam uint64
	for _, c := range family {
		fam = fam*131 + uint64(c)
	}
	rng := sim.NewRNG(seed*0x9E3779B97F4A7C15 + fam + 1)
	sp := Spec{Family: family, Seed: seed}
	ms := func(lo, hi int) time.Duration {
		return time.Duration(lo+rng.Intn(hi-lo+1)) * time.Millisecond
	}
	n := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }

	switch family {
	case "pipeline":
		// Closed-loop, pipeline-heavy: the paper's own shape, multiplied.
		sp.Duration = ms(400, 700)
		sp.Taskset = TasksetSpec{
			Pipelines: n(1, 3), MaxStages: n(2, 4),
			Misc: n(1, 2), PinnedHog: true,
		}
	case "mixed":
		// A bit of everything: RT + real-rate + interactive + misc with a
		// slow trickle of arrivals and mild churn.
		sp.Duration = ms(400, 700)
		sp.Taskset = TasksetSpec{
			Pipelines: n(0, 2), MaxStages: 3,
			RealTime: n(1, 3), Interactive: n(1, 2),
			Misc: n(1, 2), Unmanaged: n(0, 1), Paced: n(0, 1),
			PinnedHog: true,
		}
		sp.Arrivals = ArrivalSpec{
			Process: Poisson, Rate: float64(n(5, 15)),
			MeanLife: ms(80, 150),
			Mix:      []TaskKind{KindMisc, KindRealTime, KindInteractive},
		}
		sp.Churn = ChurnSpec{Rate: float64(n(5, 20)), ReserveLo: 50, ReserveHi: 300}
	case "openloop":
		// Pure open-loop web-serving shape: short-lived arrivals over a
		// small resident set. No pinned hog: the machine may legitimately
		// idle between arrivals, so work conservation is not asserted.
		sp.Duration = ms(400, 700)
		sp.Taskset = TasksetSpec{RealTime: n(0, 2), Interactive: 1}
		sp.Arrivals = ArrivalSpec{
			Process: Poisson, Rate: float64(n(30, 80)),
			MeanLife: ms(30, 100),
			Mix:      []TaskKind{KindMisc, KindMisc, KindInteractive, KindRealTime, KindPaced},
		}
	case "bursty":
		// MMPP: quiet trickle punctuated by arrival storms.
		sp.Duration = ms(400, 700)
		sp.Taskset = TasksetSpec{Misc: 1, PinnedHog: true, RealTime: n(0, 1)}
		sp.Arrivals = ArrivalSpec{
			Process: MMPP, Rate: float64(n(2, 8)), BurstRate: float64(n(100, 250)),
			PhaseMean: ms(30, 80), MeanLife: ms(20, 60),
			Mix: []TaskKind{KindMisc, KindInteractive, KindRealTime},
		}
	case "churn":
		// Admission churn near capacity: reservations spawn, die, and
		// renegotiate at high rate against a base of RT load and hogs.
		sp.Duration = ms(400, 700)
		sp.Taskset = TasksetSpec{
			RealTime: n(2, 3), Misc: n(1, 2), PinnedHog: true,
		}
		sp.Churn = ChurnSpec{
			Rate:      float64(n(80, 200)),
			ReserveLo: 100, ReserveHi: 500,
		}
	case "trace":
		// Replayed-trace arrivals: draw a trace, round-trip it through the
		// CSV codec (so the parser is on the tested path), replay it.
		sp.Duration = ms(400, 700)
		sp.Taskset = TasksetSpec{Misc: 1, PinnedHog: true}
		mix := []TaskKind{KindMisc, KindInteractive, KindRealTime}
		raw := drawArrivals(rng, ArrivalSpec{
			Process: Poisson, Rate: float64(n(20, 60)), Mix: mix,
		}, sp.Duration)
		tr, err := roundTripTrace(raw)
		if err != nil {
			return Spec{}, fmt.Errorf("gen: trace round-trip: %w", err)
		}
		sp.Arrivals = ArrivalSpec{
			Process: Trace, Trace: tr, MeanLife: ms(40, 100), Mix: mix,
		}
	case "smp":
		// Multi-CPU machine: a pinned hog per CPU (the per-CPU
		// work-conservation anchor), mixed load with room to migrate, a
		// trickle of arrivals, and mild churn. CPUs is drawn from the
		// power-of-two ladder the invariant sweep also covers.
		sp.Duration = ms(400, 700)
		sp.CPUs = []int{2, 4, 8}[rng.Intn(3)]
		sp.Taskset = TasksetSpec{
			Pipelines: n(0, 1), MaxStages: 3,
			RealTime: n(1, 3), Interactive: n(0, 1),
			Misc: n(1, 3), Unmanaged: n(0, 2), Paced: n(0, 1),
			PinnedPerCPU: true,
		}
		sp.Arrivals = ArrivalSpec{
			Process: Poisson, Rate: float64(n(10, 30)),
			MeanLife: ms(50, 150),
			Mix:      []TaskKind{KindMisc, KindRealTime, KindInteractive},
		}
		sp.Churn = ChurnSpec{Rate: float64(n(5, 20)), ReserveLo: 50, ReserveHi: 300}
	case "faults":
		// Fault-injection chaos: a modest adaptive taskset (pipeline
		// stages and paced threads are the watchdog's clientele) under a
		// drawn schedule of signal, clock, CPU, and actuation faults.
		// Every window closes well before the end of the run, leaving the
		// bounded-recovery oracle room to watch the ladder climb back.
		sp.Duration = ms(500, 700)
		sp.Taskset = TasksetSpec{
			Pipelines: n(1, 2), MaxStages: 3,
			RealTime: n(1, 2), Misc: n(1, 2), Paced: n(0, 1),
			PinnedHog: true,
		}
		sp.Faults = drawFaults(rng, sp)
	case "overload":
		// Sustained open-loop overload: a flood of best-effort arrivals at
		// roughly twice what the machine can absorb, over a small reserved
		// base plus resident misc hogs with drawn importances (the shed
		// rung's ordered victims). The arrival window is clipped to the
		// first ~55% of the run and every lifetime is hard-clamped by the
		// runner, so demand deterministically subsides and the
		// recovers-to-normal oracle has a guaranteed settle window. No
		// pinned hog: after shedding, the machine may legitimately idle.
		sp.Duration = ms(1000, 1300)
		sp.Overload = true
		sp.Taskset = TasksetSpec{
			RealTime: n(1, 2), Misc: n(2, 4),
		}
		mix := []TaskKind{KindMisc}
		loadFor := sp.Duration * 55 / 100
		storm := drawArrivals(rng, ArrivalSpec{
			Process: Poisson, Rate: float64(n(60, 120)), Mix: mix,
		}, loadFor)
		sp.Arrivals = ArrivalSpec{
			Process: Trace, Trace: storm, MeanLife: ms(50, 90), Mix: mix,
		}
	case "slo":
		// Live-service shape: open-loop per-user sessions (Poisson base +
		// MMPP bursts + a diurnal envelope), each a short
		// ingest→transform→deliver pipeline in one job with an end-to-end
		// deadline and a drawn importance, over a small resident base. The
		// runner arms a lenient governor, so burst peaks drive admission
		// refusals and importance-ordered shedding of the best-effort
		// session slice — this family's steady state, not a fault. No
		// pinned hog: the machine may idle between diurnal peaks.
		sp.Duration = ms(900, 1200)
		sp.Taskset = TasksetSpec{RealTime: n(0, 1), Misc: n(1, 2)}
		sp.Sessions = SessionSpec{
			Rate:          float64(n(60, 140)),
			BurstRate:     float64(n(250, 450)),
			PhaseMean:     ms(40, 90),
			Diurnal:       float64(n(3, 7)) / 10,
			Stages:        n(2, 4),
			Bytes:         int64(n(2, 6)) * 256,
			Chunk:         256,
			Work:          int64(n(20, 60)) * 1000,
			Deadline:      ms(40, 90),
			BestEffort:    float64(n(3, 6)) / 10,
			MaxImportance: 9,
			MaxLive:       n(50, 150),
		}
	default:
		return Spec{}, fmt.Errorf("gen: unknown scenario family %q (have %v)", family, Families())
	}
	return sp, nil
}

// drawSessionArrivals realizes the session arrival process: candidate
// instants at the peak instantaneous rate, thinned against the actual
// rate at each instant — the MMPP phase (Poisson base / burst) times the
// diurnal envelope 1 + Diurnal·sin(2πt/dur). Thinning keeps the draw
// stream fixed-length-free and exactly reproducible: every accept/reject
// consumes the same pinned RNG stream regardless of which branch wins.
func drawSessionArrivals(rng *sim.RNG, s SessionSpec, dur time.Duration) []time.Duration {
	if !s.enabled() || dur <= 0 {
		return nil
	}
	base, burst := s.Rate, s.BurstRate
	mmpp := burst > base && s.PhaseMean > 0
	if burst < base {
		burst = base
	}
	amp := math.Min(math.Max(s.Diurnal, 0), 0.95)
	peak := burst * (1 + amp)
	inBurst := false
	nextSwitch := dur + time.Second // unreachable without MMPP phases
	if mmpp {
		nextSwitch = time.Duration(rng.Exp(float64(s.PhaseMean)))
	}
	var out []time.Duration
	t := time.Duration(0)
	for {
		t += time.Duration(rng.Exp(float64(time.Second) / peak))
		if t >= dur {
			return out
		}
		for mmpp && t >= nextSwitch {
			inBurst = !inBurst
			nextSwitch += time.Duration(rng.Exp(float64(s.PhaseMean)))
		}
		r := base
		if inBurst {
			r = burst
		}
		r *= 1 + amp*math.Sin(2*math.Pi*float64(t)/float64(dur))
		if rng.Float64()*peak < r {
			out = append(out, t)
		}
	}
}

// drawFaults draws the faults family's schedule: a guaranteed mid-run
// signal freeze on a pipeline stage (the fault that actually walks the
// watchdog down the degradation ladder) plus 1–4 further specs across the
// taxonomy, with at most one CPU stall and one tick-jitter window. Signal
// and actuation faults aim only at adaptive (real-rate) threads that
// certainly exist in the generated taskset; stalls and jitter are
// machine-wide. Every window ends at least 200 ms before the run does, so
// the bounded-recovery oracle has runway to observe the climb back to the
// healthy rung.
func drawFaults(rng *sim.RNG, sp Spec) []realrate.FaultSpec {
	n := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }
	targets := []string{"pipe0.s1"}
	if sp.Taskset.Pipelines > 1 {
		targets = append(targets, "pipe1.s1")
	}
	if sp.Taskset.Paced > 0 {
		targets = append(targets, "paced0")
	}
	target := func() string { return targets[rng.Intn(len(targets))] }
	window := func(loMS, hiMS int) (at, dur time.Duration) {
		dur = time.Duration(n(loMS, hiMS)) * time.Millisecond
		last := int((sp.Duration - dur - 200*time.Millisecond) / time.Millisecond)
		if last < 50 {
			last = 50
		}
		return time.Duration(n(50, last)) * time.Millisecond, dur
	}

	at, dur := window(100, 200)
	specs := []realrate.FaultSpec{{
		Kind: realrate.FaultFreezeSignal, Target: "pipe0.s1", At: at, For: dur,
	}}
	stalls, jitters := 0, 0
	for extra := n(1, 4); extra > 0; extra-- {
		at, dur := window(30, 120)
		f := realrate.FaultSpec{At: at, For: dur}
		switch n(0, 7) {
		case 0:
			f.Kind, f.Target = realrate.FaultFreezeSignal, target()
		case 1:
			f.Kind, f.Target = realrate.FaultJumpSignal, target()
			f.Mag = 0.2 + 0.6*rng.Float64()
		case 2:
			f.Kind, f.Target = realrate.FaultBadSignal, target()
			f.Mag = 0.4
		case 3:
			f.Kind, f.Target = realrate.FaultStuckThread, target()
		case 4:
			f.Kind, f.Target = realrate.FaultDropActuation, target()
		case 5:
			f.Kind, f.Target = realrate.FaultDelayActuation, target()
		case 6:
			if stalls > 0 {
				f.Kind, f.Target = realrate.FaultDropActuation, target()
				break
			}
			stalls++
			f.Kind = realrate.FaultCPUStall
			f.CPU = rng.Intn(8) // remapped onto the actual machine by Run
			if f.For > 60*time.Millisecond {
				f.For = 60 * time.Millisecond // bound the idle a stall can force
			}
		default:
			if jitters > 0 {
				f.Kind, f.Target = realrate.FaultDelayActuation, target()
				break
			}
			jitters++
			f.Kind = realrate.FaultTickJitter
			f.Mag = 0.2 + 0.3*rng.Float64()
		}
		specs = append(specs, f)
	}
	return specs
}

// drawArrivals realizes an arrival process over [0, dur) as a concrete
// arrival list. Trace specs are returned as-is (clipped to dur).
func drawArrivals(rng *sim.RNG, a ArrivalSpec, dur time.Duration) []Arrival {
	mix := a.Mix
	if len(mix) == 0 {
		mix = []TaskKind{KindMisc}
	}
	var out []Arrival
	switch a.Process {
	case NoArrivals:
	case Trace:
		for _, ar := range a.Trace {
			if ar.At < dur {
				out = append(out, ar)
			}
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	case Poisson:
		if a.Rate <= 0 {
			break
		}
		t := time.Duration(rng.Exp(float64(time.Second) / a.Rate))
		for t < dur {
			out = append(out, Arrival{At: t, Kind: mix[rng.Intn(len(mix))]})
			t += time.Duration(rng.Exp(float64(time.Second) / a.Rate))
		}
	case MMPP:
		if a.Rate <= 0 || a.BurstRate <= 0 || a.PhaseMean <= 0 {
			break
		}
		var t time.Duration
		burst := false
		phaseEnd := time.Duration(rng.Exp(float64(a.PhaseMean)))
		for t < dur {
			rate := a.Rate
			if burst {
				rate = a.BurstRate
			}
			t += time.Duration(rng.Exp(float64(time.Second) / rate))
			for t >= phaseEnd && phaseEnd < dur {
				// Phase switch; re-draw the sojourn. Arrival times drawn
				// across the boundary keep the old rate — acceptable for a
				// workload model and simpler to keep deterministic.
				burst = !burst
				phaseEnd += time.Duration(rng.Exp(float64(a.PhaseMean)))
			}
			if t < dur {
				out = append(out, Arrival{At: t, Kind: mix[rng.Intn(len(mix))]})
			}
		}
	}
	return out
}

// WriteTraceCSV encodes an arrival trace as CSV: one "time_us,kind" row per
// arrival, with a header.
func WriteTraceCSV(w io.Writer, trace []Arrival) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_us", "kind"}); err != nil {
		return err
	}
	for _, a := range trace {
		err := cw.Write([]string{
			strconv.FormatInt(a.At.Microseconds(), 10), a.Kind.String(),
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ParseTraceCSV decodes a trace written by WriteTraceCSV (or by hand): a
// header row followed by "time_us,kind" rows. Rows must be time-ordered.
func ParseTraceCSV(r io.Reader) ([]Arrival, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("gen: trace csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("gen: empty trace")
	}
	var out []Arrival
	for i, row := range rows[1:] {
		us, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("gen: trace row %d: bad time %q", i+2, row[0])
		}
		kind, err := parseKind(row[1])
		if err != nil {
			return nil, fmt.Errorf("gen: trace row %d: %w", i+2, err)
		}
		at := time.Duration(us) * time.Microsecond
		if len(out) > 0 && at < out[len(out)-1].At {
			return nil, fmt.Errorf("gen: trace row %d: out of order", i+2)
		}
		out = append(out, Arrival{At: at, Kind: kind})
	}
	return out, nil
}

// roundTripTrace pushes a trace through the CSV codec, so the "trace"
// family exercises the parser on every generated scenario.
func roundTripTrace(trace []Arrival) ([]Arrival, error) {
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, trace); err != nil {
		return nil, err
	}
	return ParseTraceCSV(&buf)
}
