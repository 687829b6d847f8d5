package trace

import (
	"sort"
	"testing"

	"repro/internal/kernel"
	"repro/internal/rbs"
	"repro/internal/sim"
)

// TestLatencyReservoirBounded drives two orders of magnitude more
// wake→dispatch pairs than the bound through one thread and asserts the
// sample buffer stops growing while the reservoir stays representative
// (a uniform sample of a uniform ramp keeps its median near the middle).
func TestLatencyReservoirBounded(t *testing.T) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig(), rbs.New())
	th := k.Spawn("hot", nil)

	r := NewRecorder()
	r.MaxEvents = 1 // keep the log out of the way; aggregates are the point
	const rounds = 400_000
	for i := 0; i < rounds; i++ {
		at := sim.Time(i) * 10
		r.OnWake(at, th)
		r.OnDispatch(at.Add(sim.Duration(i%1000)), th)
	}
	lat := r.SchedulingLatencies("hot")
	if len(lat) != maxLatencySamples {
		t.Fatalf("latency buffer holds %d samples, want exactly the bound %d", len(lat), maxLatencySamples)
	}
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	// Latencies ramp uniformly over [0, 1000) engine units; the reservoir
	// median must sit near 500 units (in seconds at sim resolution).
	mid := (sim.Duration(500)).Seconds()
	if median < mid*0.8 || median > mid*1.2 {
		t.Fatalf("reservoir skewed: median %g, want ≈%g", median, mid)
	}
	s := r.Summaries()
	if len(s) != 1 || s[0].Wakes != rounds {
		t.Fatalf("aggregates lost under sampling: %+v", s)
	}
}

// TestRecorderFootprint10kThreads is the scale regression: a 10k-thread
// machine traced for a simulated second must keep the recorder's memory
// bounded — the event log at its cap and every per-thread latency buffer
// under the sampling bound — rather than growing with dispatch count.
func TestRecorderFootprint10kThreads(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-thread footprint run")
	}
	const (
		threads   = 10_000
		maxEvents = 5_000
	)
	eng := sim.NewEngine()
	p := rbs.New()
	cfg := kernel.DefaultConfig()
	cfg.CPUs = 4
	k := kernel.New(eng, cfg, p)
	r := NewRecorder()
	r.MaxEvents = maxEvents
	k.SetTracer(r)

	op := kernel.Compute(1_000_000)
	prog := kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op { return op })
	for i := 0; i < threads; i++ {
		th := k.Spawn("w", prog)
		if err := p.SetReservation(th, rbs.Reservation{Proportion: 1, Period: 10 * sim.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	k.Start()
	eng.RunFor(sim.Second)
	k.Stop()

	if len(r.Events()) > maxEvents {
		t.Fatalf("event log grew past its bound: %d > %d", len(r.Events()), maxEvents)
	}
	if r.Dropped() == 0 {
		t.Fatal("run too small to exercise the event cap (no drops)")
	}
	total := 0
	for _, st := range r.threads {
		if len(st.latencies) > maxLatencySamples {
			t.Fatalf("thread %s holds %d latency samples > bound %d", st.name, len(st.latencies), maxLatencySamples)
		}
		total += len(st.latencies)
	}
	// Interned names: 10k same-named threads share one stats row, so the
	// whole run's latency footprint is one bounded buffer.
	if total > maxLatencySamples {
		t.Fatalf("latency samples %d exceed the per-name bound %d", total, maxLatencySamples)
	}
}
