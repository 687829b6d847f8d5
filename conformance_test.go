package realrate_test

import (
	"os"
	"strings"
	"testing"
	"time"

	realrate "repro"
)

// conformancePipeline spawns the canonical pipeline/hog scenario through
// the unified Spawn API: a reserved producer, a real-rate consumer, and a
// miscellaneous hog. It is byte-for-byte the workload behind
// testdata/goldens/rbs_dispatch.golden.
func conformancePipeline(t *testing.T, sys *realrate.System) (*realrate.Queue, []*realrate.Thread) {
	t.Helper()
	pipe := sys.NewQueue("pipe", 1<<20)
	pc := true
	producer := realrate.ProgramFunc(func(th *realrate.Thread, now time.Duration) realrate.Action {
		pc = !pc
		if pc {
			return realrate.Compute(400_000)
		}
		return realrate.Produce(pipe, 20_000)
	})
	cc := true
	consumer := realrate.ProgramFunc(func(th *realrate.Thread, now time.Duration) realrate.Action {
		cc = !cc
		if cc {
			return realrate.Consume(pipe, 4096)
		}
		return realrate.Compute(40 * 4096)
	})
	prod, err := sys.Spawn("producer", producer, realrate.Reserve(100, 10*time.Millisecond))
	if err != nil {
		t.Fatalf("spawn producer: %v", err)
	}
	cons, err := sys.Spawn("consumer", consumer, realrate.RealRate(0, realrate.ConsumerOf(pipe)))
	if err != nil {
		t.Fatalf("spawn consumer: %v", err)
	}
	hog, err := sys.Spawn("hog", realrate.HogProgram(400_000))
	if err != nil {
		t.Fatalf("spawn hog: %v", err)
	}
	return pipe, []*realrate.Thread{prod, cons, hog}
}

// policies lists every public policy constructor; the conformance suite
// runs the same scenario under each.
func policies() map[string]func() realrate.Policy {
	return map[string]func() realrate.Policy{
		"rbs":         func() realrate.Policy { return realrate.RBS() },
		"stride":      func() realrate.Policy { return realrate.Stride(10 * time.Millisecond) },
		"lottery":     func() realrate.Policy { return realrate.Lottery(10*time.Millisecond, 42) },
		"linux":       func() realrate.Policy { return realrate.Linux() },
		"round-robin": func() realrate.Policy { return realrate.RoundRobin(10 * time.Millisecond) },
	}
}

// TestPolicyConformance runs the pipeline/hog scenario under every public
// policy and asserts the scheduler invariants that must hold regardless of
// discipline: queue conservation, no lost threads, full time accounting,
// and work conservation (the machine never idles with a hog runnable).
func TestPolicyConformance(t *testing.T) {
	const dur = 2 * time.Second
	for name, mk := range policies() {
		t.Run(name, func(t *testing.T) {
			sys := realrate.NewSystem(realrate.Config{Policy: mk()})
			if got := sys.PolicyName(); got == "" {
				t.Fatal("empty policy name")
			}
			pipe, threads := conformancePipeline(t, sys)
			sys.Run(dur)

			// Queue conservation: nothing lost or invented in transit.
			if pipe.Produced() != pipe.Consumed()+pipe.Fill() {
				t.Errorf("queue conservation broken: produced %d != consumed %d + fill %d",
					pipe.Produced(), pipe.Consumed(), pipe.Fill())
			}
			if pipe.Fill() < 0 || pipe.Fill() > pipe.Size() {
				t.Errorf("fill %d outside [0, %d]", pipe.Fill(), pipe.Size())
			}

			// No lost threads: every spawned thread still has a coherent
			// state and ran at least once in two seconds.
			var busy time.Duration
			for _, th := range threads {
				switch th.State() {
				case "ready", "running", "blocked", "sleeping":
				default:
					t.Errorf("thread %s in unexpected state %q", th.Name(), th.State())
				}
				if th.CPUTime() == 0 {
					t.Errorf("thread %s starved: zero CPU over %v", th.Name(), dur)
				}
				busy += th.CPUTime()
			}

			// Time accounting closes: thread time + controller + idle +
			// overhead = elapsed (work conservation with a hog means idle
			// stays a sliver).
			st := sys.Stats()
			total := busy + sys.ControllerCPU() + st.Idle + st.SchedOverhead
			if diff := (st.Elapsed - total).Abs(); diff > time.Millisecond {
				t.Errorf("time accounting leaks %v (elapsed %v, accounted %v)", diff, st.Elapsed, total)
			}
			// Baselines are work-conserving: a runnable hog keeps idle at a
			// sliver. RBS naps budget-exhausted threads until their next
			// period (§3.1), so it may idle briefly between period ends.
			idleCap := dur / 10
			if name == "rbs" {
				idleCap = dur / 4
			}
			if st.Idle > idleCap {
				t.Errorf("machine idled %v with a hog runnable", st.Idle)
			}
			if st.Dispatches == 0 || st.Ticks == 0 {
				t.Errorf("no scheduling activity: %+v", st)
			}

			// The producer's reservation must be expressible only under
			// RBS; everywhere else it degrades but the pipeline still flows.
			if pipe.Consumed() == 0 {
				t.Error("pipeline moved no bytes")
			}
		})
	}
}

// TestRBSDispatchTraceGolden replays the conformance scenario under the
// default policy with tracing enabled and requires the dispatch schedule
// to be byte-identical to the pre-redesign golden — the proof that the API
// redesign left the scheduler's behavior untouched.
func TestRBSDispatchTraceGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/goldens/rbs_dispatch.golden")
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	sys := realrate.NewSystem(realrate.Config{})
	tr := sys.EnableTracing()
	conformancePipeline(t, sys)
	sys.Run(2 * time.Second)

	var sb strings.Builder
	if err := tr.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Fatalf("dispatch trace diverged from pre-redesign golden (%d bytes vs %d)",
			sb.Len(), len(want))
	}
}

// TestSMPOneCPUGoldenEquivalence is the differential anchor of the SMP
// refactor: a machine built with an explicit Config.CPUs=1 must produce a
// dispatch trace byte-identical to the committed pre-SMP golden — the
// per-CPU run structures, the sharded dispatcher, and the capacity
// generalization must collapse exactly to the paper's single-CPU machine.
// (scripts/goldens.sh runs this alongside the Figure 5–8 byte-compares.)
func TestSMPOneCPUGoldenEquivalence(t *testing.T) {
	want, err := os.ReadFile("testdata/goldens/rbs_dispatch.golden")
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	sys := realrate.NewSystem(realrate.Config{CPUs: 1})
	tr := sys.EnableTracing()
	conformancePipeline(t, sys)
	sys.Run(2 * time.Second)

	var sb strings.Builder
	if err := tr.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Fatalf("SMP kernel pinned to one CPU diverged from the pre-SMP golden (%d bytes vs %d)",
			sb.Len(), len(want))
	}
	if st := sys.Stats(); st.Migrations != 0 {
		t.Fatalf("%d migrations on a single-CPU machine", st.Migrations)
	}
}

// TestTicketDegradation checks the documented Reserve degradation under
// ticket policies: proportions become tickets, so two reserved threads
// split the CPU in ticket proportion.
func TestTicketDegradation(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{Policy: realrate.Stride(10 * time.Millisecond)})
	big, err := sys.Spawn("big", realrate.HogProgram(400_000), realrate.Reserve(600, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	small, err := sys.Spawn("small", realrate.HogProgram(400_000), realrate.Reserve(200, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(5 * time.Second)
	ratio := big.CPUTime().Seconds() / small.CPUTime().Seconds()
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("stride split %.2f, want ≈3 (600:200 tickets)", ratio)
	}
}

// TestExplicitTicketsAndNice exercises the Tickets and Nice spawn options
// on the policies that take them, and their rejection elsewhere.
func TestExplicitTicketsAndNice(t *testing.T) {
	lot := realrate.Lottery(10*time.Millisecond, 7)
	sys := realrate.NewSystem(realrate.Config{Policy: lot})
	a, err := sys.Spawn("a", realrate.HogProgram(400_000), realrate.Tickets(900))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Spawn("b", realrate.HogProgram(400_000), realrate.Tickets(100))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(5 * time.Second)
	if a.CPUTime() <= 4*b.CPUTime() {
		t.Fatalf("lottery ignored tickets: a=%v b=%v", a.CPUTime(), b.CPUTime())
	}

	lin := realrate.NewSystem(realrate.Config{Policy: realrate.Linux()})
	if _, err := lin.Spawn("nice", realrate.HogProgram(400_000), realrate.Nice(10)); err != nil {
		t.Fatalf("Nice rejected under linux: %v", err)
	}
	if _, err := lin.Spawn("t", realrate.HogProgram(400_000), realrate.Tickets(10)); err == nil {
		t.Fatal("Tickets accepted under linux policy")
	}

	rbs := realrate.NewSystem(realrate.Config{})
	if _, err := rbs.Spawn("t", realrate.HogProgram(400_000), realrate.Tickets(10)); err == nil {
		t.Fatal("Tickets accepted under rbs policy")
	}
	if _, err := rbs.Spawn("n", realrate.HogProgram(400_000), realrate.Nice(1)); err == nil {
		t.Fatal("Nice accepted under rbs policy")
	}
}

// TestSpawnOptionConflicts checks that the mutually-exclusive class
// options, and invalid options, are rejected with a clear error and leave
// the spawn spec unchanged.
func TestSpawnOptionConflicts(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	_, err := sys.Spawn("x", realrate.HogProgram(1000),
		realrate.Miscellaneous(), realrate.Interactive())
	if err == nil || !strings.Contains(err.Error(), "conflicting spawn options") {
		t.Fatalf("conflict not rejected: %v", err)
	}
	q := sys.NewQueue("q", 1024)
	_, err = sys.Spawn("y", realrate.HogProgram(1000),
		realrate.Reserve(100, 10*time.Millisecond),
		realrate.RealRate(0, realrate.ConsumerOf(q)))
	if err == nil {
		t.Fatal("Reserve+RealRate accepted")
	}
	if _, err := sys.Spawn("z", realrate.HogProgram(1000), realrate.RealRate(0)); err == nil {
		t.Fatal("RealRate with no sources accepted")
	}
	if _, err := sys.Spawn("w", realrate.HogProgram(1000), realrate.Unmanaged(), realrate.Importance(2)); err == nil {
		t.Fatal("Importance on unmanaged thread accepted")
	}

	// The zero SpawnOption is no option at all: Spawn rejects it.
	if _, err := sys.Spawn("v", realrate.HogProgram(1000), realrate.SpawnOption{}); err == nil ||
		!strings.Contains(err.Error(), "zero SpawnOption") {
		t.Fatalf("zero SpawnOption not rejected: %v", err)
	}
	// A rejected option, the zero one included, leaves the spec as the
	// options before it built it.
	base := []realrate.SpawnOption{realrate.Reserve(100, 10*time.Millisecond), realrate.Importance(2), realrate.Affinity(0)}
	want, err := realrate.FoldSpawnOptions(base...)
	if err != nil {
		t.Fatal(err)
	}
	for i, bad := range []realrate.SpawnOption{
		{}, realrate.Interactive(), realrate.RealRate(0), realrate.InJob(nil),
		realrate.Importance(-1), realrate.Tickets(0), realrate.Affinity(1), realrate.AnyCPU(),
	} {
		got, err := realrate.FoldSpawnOptions(append(base[:len(base):len(base)], bad)...)
		if err == nil {
			t.Fatalf("bad option %d accepted", i)
		}
		if got != want {
			t.Fatalf("bad option %d (%v) changed the spec:\n got %s\nwant %s", i, err, got, want)
		}
	}
}

// TestRejectedSpawnDoesNotRun guards the error paths of Spawn: a thread
// whose registration fails must be fully retired from the kernel, not
// left running in the leftover CPU with no public handle.
func TestRejectedSpawnDoesNotRun(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	if _, err := sys.Spawn("ok", realrate.HogProgram(400_000), realrate.Reserve(400, 10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn("rejected", realrate.HogProgram(400_000), realrate.Reserve(800, 10*time.Millisecond)); err == nil {
		t.Fatal("oversubscription accepted")
	}
	// A failed option on an otherwise valid spawn leaks the same way.
	if _, err := sys.Spawn("badopt", realrate.HogProgram(400_000), realrate.Unmanaged(), realrate.Importance(2)); err == nil {
		t.Fatal("Importance on unmanaged accepted")
	}
	sys.Run(2 * time.Second)

	// Only the admitted 400-ppt hog runs: the machine must idle for
	// roughly the other 60%. If a rejected thread leaked into the
	// scheduler it would soak up all of it.
	if idle := sys.Stats().Idle; idle < time.Second {
		t.Fatalf("idle = %v; a rejected spawn is consuming the leftover CPU", idle)
	}

	// Mid-run rejection too: the kernel is live, so the leaked thread
	// would otherwise start running immediately.
	before := sys.Stats().Idle
	if _, err := sys.Spawn("late", realrate.HogProgram(400_000), realrate.Reserve(900, 10*time.Millisecond)); err == nil {
		t.Fatal("late oversubscription accepted")
	}
	sys.Run(time.Second)
	if gained := sys.Stats().Idle - before; gained < 400*time.Millisecond {
		t.Fatalf("idle gained only %v after mid-run rejection", gained)
	}
}

// TestImportanceWithInJobRejected pins the explicit error for the
// ambiguous combination (importance belongs to the job, not one member).
func TestImportanceWithInJobRejected(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	lead, err := sys.Spawn("lead", realrate.HogProgram(400_000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn("member", realrate.HogProgram(400_000),
		realrate.InJob(lead), realrate.Importance(4)); err == nil {
		t.Fatal("InJob+Importance silently accepted")
	}
}

// TestCustomProgressSource drives a real-rate thread from a
// user-implemented ProgressSource — §4.5's "any measurable work unit" —
// and checks the controller reacts to its pressure.
func TestCustomProgressSource(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	src := &constantPressure{p: 0.4} // permanently behind: allocation must grow
	th, err := sys.Spawn("custom", realrate.HogProgram(100_000),
		realrate.RealRate(20*time.Millisecond, src))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(2 * time.Second)
	if th.Class() != "real-rate" {
		t.Fatalf("class = %q", th.Class())
	}
	if a := th.Allocation(); a < 300 {
		t.Fatalf("allocation %d ppt; sustained positive pressure should have grown it", a)
	}
	if src.samples == 0 {
		t.Fatal("custom source never sampled")
	}

	// Out-of-range pressures are clamped before they reach the controller.
	sys2 := realrate.NewSystem(realrate.Config{})
	wild := &constantPressure{p: 37}
	th2, err := sys2.Spawn("wild", realrate.HogProgram(100_000),
		realrate.RealRate(20*time.Millisecond, wild))
	if err != nil {
		t.Fatal(err)
	}
	sys2.Run(time.Second)
	if p := th2.Pressure(); p > 60 {
		t.Fatalf("unclamped pressure reached the filter: %v", p)
	}
}

// constantPressure is a trivial user-defined ProgressSource.
type constantPressure struct {
	p       float64
	samples int
}

func (c *constantPressure) Pressure(now time.Duration) float64 {
	c.samples++
	return c.p
}

func (c *constantPressure) Describe() string { return "constant" }
