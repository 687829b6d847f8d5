package trace_test

import (
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
)

func buildTracedMachine() (*sim.Engine, *kernel.Kernel, *trace.Recorder) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig(), baseline.NewRoundRobin(5*sim.Millisecond))
	rec := trace.NewRecorder()
	k.SetTracer(rec)
	return eng, k, rec
}

func TestRecorderCountsSegments(t *testing.T) {
	eng, k, rec := buildTracedMachine()
	k.Spawn("hog", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		return kernel.Compute(1_000_000)
	}))
	k.Start()
	eng.RunFor(sim.Second)
	k.Stop()

	sums := rec.Summaries()
	if len(sums) != 1 {
		t.Fatalf("summaries = %d, want 1", len(sums))
	}
	s := sums[0]
	if s.Thread != "hog" || s.Segments == 0 {
		t.Fatalf("bad summary: %+v", s)
	}
	// Total run from the trace must match the thread's accounting.
	th := k.Threads()[0]
	diff := s.TotalRun - th.CPUTime()
	if diff < 0 {
		diff = -diff
	}
	if diff > sim.Millisecond {
		t.Fatalf("trace total %v != accounted %v", s.TotalRun, th.CPUTime())
	}
}

func TestRecorderSchedulingLatency(t *testing.T) {
	eng, k, rec := buildTracedMachine()
	// A sleeper on an idle machine: wake-to-dispatch latency should be
	// tiny (just dispatch overhead).
	phase := 0
	k.Spawn("sleeper", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		phase++
		if phase%2 == 1 {
			return kernel.Sleep(10 * sim.Millisecond)
		}
		return kernel.Compute(40_000)
	}))
	k.Start()
	eng.RunFor(sim.Second)
	k.Stop()

	lat := rec.SchedulingLatencies("sleeper")
	if len(lat) < 30 {
		t.Fatalf("only %d latency samples", len(lat))
	}
	for _, l := range lat {
		if l < 0 {
			t.Fatal("negative latency")
		}
		if l > 0.001 {
			t.Fatalf("idle-machine wake latency %v s, want ≈dispatch cost", l)
		}
	}
	s := rec.Summaries()[0]
	if s.LatencyP99 <= 0 || s.Wakes == 0 {
		t.Fatalf("latency summary empty: %+v", s)
	}
}

func TestRecorderBlockEventsAndCSV(t *testing.T) {
	eng, k, rec := buildTracedMachine()
	q := k.NewQueue("pipe", 1024)
	k.Spawn("cons", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		return kernel.Consume(q, 512) // blocks forever
	}))
	k.Start()
	eng.RunFor(100 * sim.Millisecond)
	k.Stop()

	var sawBlock bool
	for _, ev := range rec.Events() {
		if ev.Kind == trace.Block && ev.Thread == "cons" {
			sawBlock = true
			if !strings.Contains(ev.On, "pipe") {
				t.Fatalf("block event wait queue = %q", ev.On)
			}
		}
	}
	if !sawBlock {
		t.Fatal("no block event recorded")
	}
	var sb strings.Builder
	if err := rec.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "time_s,kind,thread,ran_us,on\n") {
		t.Fatalf("bad CSV header: %q", sb.String()[:40])
	}
	if !strings.Contains(sb.String(), "block,cons") {
		t.Fatal("CSV missing block row")
	}
}

func TestRecorderMaxEventsBound(t *testing.T) {
	eng, k, rec := buildTracedMachine()
	rec.MaxEvents = 10
	k.Spawn("hog", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		return kernel.Compute(100_000)
	}))
	k.Start()
	eng.RunFor(sim.Second)
	k.Stop()
	if len(rec.Events()) != 10 {
		t.Fatalf("events = %d, want capped at 10", len(rec.Events()))
	}
	if rec.Dropped() == 0 {
		t.Fatal("drop counter not incremented")
	}
	// Aggregates keep working past the bound.
	if rec.Summaries()[0].Segments < 100 {
		t.Fatalf("aggregates stopped at the bound: %+v", rec.Summaries()[0])
	}
}

func TestLatencyUnderLoadReflectsPolicy(t *testing.T) {
	// Under round-robin with 5ms quanta and three hogs, a waking thread
	// can wait for the current quantum to finish: p99 latency should land
	// in the milliseconds, visible in the trace.
	eng, k, rec := buildTracedMachine()
	for i := 0; i < 3; i++ {
		k.Spawn("hog", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
			return kernel.Compute(1_000_000)
		}))
	}
	phase := 0
	k.Spawn("waker", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		phase++
		if phase%2 == 1 {
			return kernel.Sleep(20 * sim.Millisecond)
		}
		return kernel.Compute(40_000)
	}))
	k.Start()
	eng.RunFor(2 * sim.Second)
	k.Stop()

	var s trace.Summary
	for _, sum := range rec.Summaries() {
		if sum.Thread == "waker" {
			s = sum
		}
	}
	if s.LatencyP99 < 500*sim.Microsecond {
		t.Fatalf("p99 latency %v too low for a loaded round-robin machine", s.LatencyP99)
	}
	if s.LatencyP99 > 20*sim.Millisecond {
		t.Fatalf("p99 latency %v absurdly high", s.LatencyP99)
	}
}
