package trace_test

import (
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

func buildTracedMachine() (*sim.Engine, *kernel.Kernel, *trace.Recorder) {
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig(), baseline.NewRoundRobin(5*sim.Millisecond))
	rec := &trace.Recorder{}
	k.SetTracer(rec)
	return eng, k, rec
}

// segments counts the named thread's dispatches and sums the run time its
// deschedule events report.
func segments(events []trace.Event, thread string) (n int, total sim.Duration) {
	for _, ev := range events {
		if ev.Thread != thread {
			continue
		}
		switch ev.Kind {
		case trace.Dispatch:
			n++
		case trace.Deschedule:
			total += ev.Ran
		}
	}
	return n, total
}

// wakeLatencies pairs each of the named thread's dispatches with the wake
// that preceded it and returns the wake→dispatch latencies in seconds. A
// dispatch with no wake since the previous one (a preempted thread
// resuming) is not a scheduling-latency sample.
func wakeLatencies(events []trace.Event, thread string) []float64 {
	var lat []float64
	var woke sim.Time
	pending := false
	for _, ev := range events {
		if ev.Thread != thread {
			continue
		}
		switch ev.Kind {
		case trace.Wake:
			woke, pending = ev.At, true
		case trace.Dispatch:
			if pending {
				lat = append(lat, ev.At.Sub(woke).Seconds())
				pending = false
			}
		}
	}
	return lat
}

func TestRecorderCountsSegments(t *testing.T) {
	eng, k, rec := buildTracedMachine()
	k.Spawn("hog", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		return kernel.Compute(1_000_000)
	}))
	k.Start()
	eng.RunFor(sim.Second)
	k.Stop()

	for _, ev := range rec.Events() {
		if ev.Thread != "hog" {
			t.Fatalf("event for unknown thread: %+v", ev)
		}
	}
	n, total := segments(rec.Events(), "hog")
	if n == 0 {
		t.Fatal("no dispatch of hog recorded")
	}
	// Total run from the trace must match the thread's accounting.
	th := k.Threads()[0]
	diff := total - th.CPUTime()
	if diff < 0 {
		diff = -diff
	}
	if diff > sim.Millisecond {
		t.Fatalf("trace total %v != accounted %v", total, th.CPUTime())
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

	lat := wakeLatencies(rec.Events(), "sleeper")
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
	if p99 := metrics.PercentileSorted(metrics.SortedCopy(nil, lat), 99); p99 <= 0 {
		t.Fatalf("p99 wake latency %v s, want the dispatch cost", p99)
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

	lat := wakeLatencies(rec.Events(), "waker")
	if len(lat) == 0 {
		t.Fatal("waker never woke")
	}
	p99 := sim.Duration(metrics.PercentileSorted(metrics.SortedCopy(nil, lat), 99) * float64(sim.Second))
	if p99 < 500*sim.Microsecond {
		t.Fatalf("p99 latency %v too low for a loaded round-robin machine", p99)
	}
	if p99 > 20*sim.Millisecond {
		t.Fatalf("p99 latency %v absurdly high", p99)
	}
}
