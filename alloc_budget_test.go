// Allocation budgets: tier-1 companions to the churn benchmarks. Each
// test runs the same scenario as its benchmark and fails if the heap
// allocation count regresses past a ceiling. The ceilings sit 2x or more
// above the pooled steady state (SLOSessions n=10000 ≈ 3.8k allocs, storm
// n=10000 ≈ 0.7k), far below the pre-pooling counts (≈212k and ≈20.7k),
// so noise never trips them but losing the free lists always does.
package realrate_test

import (
	"runtime"
	"testing"
	"time"

	realrate "repro"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload/gen"
)

// measureAllocs returns the heap objects and bytes allocated while fn runs,
// after one warmup run. A single measured run (after one warmup to
// populate lazy globals) is deterministic enough here: the simulator is
// single-goroutine, the object ceilings leave 2x headroom and the byte
// ceilings 5%.
func measureAllocs(t *testing.T, fn func()) (objs, bytes uint64) {
	t.Helper()
	fn() // warmup: interned tables, lazy pools, timer rings
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestAllocBudgetSLOSessions holds the live-service session storm
// (BenchmarkSLOSessions n=10000) to its allocation budget, in objects and
// in bytes. Most of the bytes are per-spawn state that outlives the run's
// pools — the public Thread handles, never pooled by design — plus the
// SLO tracker's reservoirs, so the object budget — 2x the 3,847 objects
// the run allocates — and the byte budget — 5% above its 3,491,216 bytes
// with 128-byte handles and only the system and session series
// (3,984,480 with 144-byte handles and per-job and per-class series;
// 5,826,848 before the 152-byte handles, slot tables and one sort per
// report series) — catch any of them growing back.
func TestAllocBudgetSLOSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget run is a full session storm")
	}
	const budget, byteBudget = 7_694, 3_666_000
	got, bytes := measureAllocs(t, func() {
		sp := experiments.SLOSpec(1, 10_000, 1.0, time.Second, 8)
		if _, err := gen.Generate(sp).Run(gen.RunOpts{
			Policy: "rbs", Controller: "event", NoInvariants: true,
		}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("SLOSessions n=10000: %d allocs (budget %d), %d bytes (budget %d)", got, budget, bytes, byteBudget)
	if got > budget {
		t.Fatalf("session storm allocated %d objects, budget is %d: the pooled spawn→exit lifecycle regressed", got, budget)
	}
	if bytes > byteBudget {
		t.Fatalf("session storm allocated %d bytes, budget is %d: the handle, the slot tables or the SLO report grew", bytes, byteBudget)
	}
}

// TestAllocBudgetStormDispatch holds the open-loop dispatch storm
// (BenchmarkStormDispatch n=10000) to its allocation budget, in objects
// and in bytes. Almost all of the bytes are per-thread state (the kernel
// thread, the rbs state slab) and the dispatch arrays, so the byte budget
// — 5% above the 4,196,736 bytes the run allocates with 200-byte kernel
// threads and ready-heap entries in fixed 256-entry chunks (4,245,024
// with 208-byte threads and a pointer-per-slot ready slice; 4,911,488
// with 24-byte entries in one append-grown slice, whose regrowth copies
// dominate) — catches either growing.
func TestAllocBudgetStormDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget run is a full dispatch storm")
	}
	const budget, byteBudget = 4_000, 4_407_000
	got, bytes := measureAllocs(t, func() {
		experiments.RunContextSwitchStorm(experiments.StormConfig{
			Threads: 10_000, RunFor: sim.Second,
		})
	})
	t.Logf("StormDispatch n=10000: %d allocs (budget %d), %d bytes (budget %d)", got, budget, bytes, byteBudget)
	if got > budget {
		t.Fatalf("dispatch storm allocated %d objects, budget is %d: the pooled spawn→exit lifecycle regressed", got, budget)
	}
	if bytes > byteBudget {
		t.Fatalf("dispatch storm allocated %d bytes, budget is %d: per-thread state or the dispatch arrays grew", bytes, byteBudget)
	}
}

// TestSpawnAllocatesNothing holds Spawn to zero allocations per call on
// its hot shapes: the plane's idle Miscellaneous jobs, a session
// primary's Miscellaneous+Importance and a session member's InJob. The
// options are values folded into a spec on the stack, so what a spawn
// allocates is only its share of the slab chunks behind a thread (handle,
// kernel thread, rbs state, controller job), which the per-call average
// rounds away; a warm-up carves the first chunks. Session members join
// jobs in turn, so each job stays session-sized (a few members, as a
// pipeline's stages). The last case joins every member to one job, over
// 400 of them by the end of the warm-up: each join actuates the whole job,
// and the actuation's snapshot of the member list must reuse the
// controller's scratch rather than copy the list.
func TestSpawnAllocatesNothing(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	prog := realrate.HogProgram(100_000)
	primaries := make([]*realrate.Thread, 256)
	for i := range primaries {
		th, err := sys.Spawn("primary", prog, realrate.Miscellaneous())
		if err != nil {
			t.Fatal(err)
		}
		primaries[i] = th
	}
	next := 0
	for _, c := range []struct {
		name  string
		spawn func() (*realrate.Thread, error)
	}{
		{"Miscellaneous", func() (*realrate.Thread, error) {
			return sys.Spawn("misc", prog, realrate.Miscellaneous())
		}},
		{"Miscellaneous+Importance", func() (*realrate.Thread, error) {
			return sys.Spawn("imp", prog, realrate.Miscellaneous(), realrate.Importance(2))
		}},
		{"InJob", func() (*realrate.Thread, error) {
			next++
			return sys.Spawn("member", prog, realrate.InJob(primaries[next%len(primaries)]))
		}},
		{"InJob/one large job", func() (*realrate.Thread, error) {
			return sys.Spawn("crew", prog, realrate.InJob(primaries[0]))
		}},
	} {
		spawn := func() {
			if _, err := c.spawn(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		for i := 0; i < 400; i++ {
			spawn()
		}
		if got := testing.AllocsPerRun(100, spawn); got != 0 {
			t.Errorf("Spawn(%s) allocated %v objects per call, want 0", c.name, got)
		}
	}
}

// actionSink keeps each constructed Action reachable, so the compiler
// cannot drop a construction that would otherwise escape to the heap.
var actionSink realrate.Action

// TestActionsAllocateNothing holds the Action layer to zero allocations.
// Every package-level constructor returns a plain value, and a machine
// whose programs build every action with them — a reserved producer
// feeding a real-rate consumer through a queue, beside a CPU hog — runs a
// simulated second without allocating once it is warm.
func TestActionsAllocateNothing(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	q := sys.NewQueue("pipe", 1<<20)
	m := sys.NewMutex("lock")
	wq := sys.NewWaitQueue("tty")
	for _, c := range []struct {
		name string
		make func() realrate.Action
	}{
		{"Compute", func() realrate.Action { return realrate.Compute(400_000) }},
		{"ComputeFor", func() realrate.Action { return realrate.ComputeFor(time.Millisecond) }},
		{"Produce", func() realrate.Action { return realrate.Produce(q, 4096) }},
		{"Consume", func() realrate.Action { return realrate.Consume(q, 4096) }},
		{"Sleep", func() realrate.Action { return realrate.Sleep(time.Millisecond) }},
		{"SleepUntil", func() realrate.Action { return realrate.SleepUntil(time.Second) }},
		{"Lock", func() realrate.Action { return realrate.Lock(m) }},
		{"Unlock", func() realrate.Action { return realrate.Unlock(m) }},
		{"Wait", func() realrate.Action { return realrate.Wait(wq) }},
		{"Yield", realrate.Yield},
		{"Exit", realrate.Exit},
	} {
		if got := testing.AllocsPerRun(100, func() { actionSink = c.make() }); got != 0 {
			t.Errorf("%s allocated %v objects per call, want 0", c.name, got)
		}
	}

	producing := false
	producer := realrate.ProgramFunc(func(*realrate.Thread, time.Duration) realrate.Action {
		producing = !producing
		if producing {
			return realrate.Produce(q, 20_000)
		}
		return realrate.Compute(400_000)
	})
	consuming := false
	consumer := realrate.ProgramFunc(func(*realrate.Thread, time.Duration) realrate.Action {
		consuming = !consuming
		if consuming {
			return realrate.Consume(q, 4096)
		}
		return realrate.ComputeFor(400 * time.Microsecond)
	})
	hog := realrate.ProgramFunc(func(*realrate.Thread, time.Duration) realrate.Action {
		return realrate.Compute(100_000)
	})
	if _, err := sys.Spawn("producer", producer, realrate.Reserve(100, 10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	cons, err := sys.Spawn("consumer", consumer, realrate.RealRate(0, realrate.ConsumerOf(q)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn("hog", hog, realrate.Miscellaneous()); err != nil {
		t.Fatal(err)
	}
	sys.Run(2 * time.Second) // warm-up: the controller's and engine's first touches
	if got := testing.AllocsPerRun(3, func() { sys.Run(time.Second) }); got != 0 {
		t.Errorf("a simulated second of the pipeline allocated %v objects, want 0", got)
	}
	if q.Consumed() == 0 || cons.Allocation() == 0 {
		t.Fatalf("pipeline did not run: %d bytes consumed, consumer allocation %d ppt", q.Consumed(), cons.Allocation())
	}
}
