package realrate_test

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	realrate "repro"
)

// spawn is System.Spawn for tests: a refused spawn fails the test.
func spawn(tb testing.TB, sys *realrate.System, name string, prog realrate.Program, opts ...realrate.SpawnOption) *realrate.Thread {
	tb.Helper()
	th, err := sys.Spawn(name, prog, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return th
}

// pipeline spawns the canonical reserved-producer / controlled-consumer
// pair on sys and returns the queue and consumer.
func pipeline(t *testing.T, sys *realrate.System) (*realrate.Queue, *realrate.Thread) {
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
	if _, err := sys.Spawn("producer", producer, realrate.Reserve(100, 10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	cons := spawn(t, sys, "consumer", consumer, realrate.RealRate(0, realrate.ConsumerOf(pipe)))
	return pipe, cons
}

func TestSystemRunAdvancesTime(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	sys.Run(time.Second)
	if sys.Now() != time.Second {
		t.Fatalf("Now = %v, want 1s", sys.Now())
	}
	sys.Run(time.Second)
	if sys.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", sys.Now())
	}
}

func TestPublicPipelineConverges(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	pipe, cons := pipeline(t, sys)
	sys.Run(10 * time.Second)

	if fl := pipe.FillLevel(); fl < 0.35 || fl > 0.65 {
		t.Fatalf("fill level = %.3f, want ≈0.5", fl)
	}
	if a := cons.Allocation(); a < 120 || a > 300 {
		t.Fatalf("consumer allocation = %d ppt, want ≈200", a)
	}
	if cons.Class() != "real-rate" {
		t.Fatalf("consumer class = %q", cons.Class())
	}
	if cons.Period() != 30*time.Millisecond {
		t.Fatalf("consumer default period = %v, want 30ms", cons.Period())
	}
}

func TestAdmissionErrorSurfaced(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	if _, err := sys.Spawn("big", realrate.HogProgram(1000), realrate.Reserve(800, 10*time.Millisecond)); err != nil {
		t.Fatalf("first reservation rejected: %v", err)
	}
	if _, err := sys.Spawn("too-big", realrate.HogProgram(1000), realrate.Reserve(300, 10*time.Millisecond)); err == nil {
		t.Fatal("oversubscription accepted")
	}
}

func TestUnmanagedThreadRunsInLeftover(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	um := spawn(t, sys, "legacy", realrate.HogProgram(400_000), realrate.Unmanaged())
	sys.Run(2 * time.Second)
	if um.CPUTime() < time.Second {
		t.Fatalf("unmanaged thread got %v of an idle machine", um.CPUTime())
	}
	if um.Class() != "unmanaged" || um.Allocation() != 0 {
		t.Fatalf("unmanaged metadata wrong: class=%q alloc=%d", um.Class(), um.Allocation())
	}
}

func TestMiscThreadsShareEqually(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	a := spawn(t, sys, "a", realrate.HogProgram(400_000))
	b := spawn(t, sys, "b", realrate.HogProgram(400_000))
	sys.Run(8 * time.Second)
	ra := a.CPUTime().Seconds()
	rb := b.CPUTime().Seconds()
	if ra/rb < 0.8 || ra/rb > 1.25 {
		t.Fatalf("misc split %.2f/%.2f, want ≈equal", ra, rb)
	}
}

func TestImportanceViaPublicAPI(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	vip := spawn(t, sys, "vip", realrate.HogProgram(400_000))
	std := spawn(t, sys, "std", realrate.HogProgram(400_000))
	vip.SetImportance(4)
	sys.Run(8 * time.Second)
	if vip.CPUTime() <= std.CPUTime() {
		t.Fatalf("importance ignored: vip=%v std=%v", vip.CPUTime(), std.CPUTime())
	}
	if std.CPUTime() == 0 {
		t.Fatal("standard job starved")
	}
}

func TestMutexAndWaitQueue(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	m := sys.NewMutex("m")
	wq := sys.NewWaitQueue("tty")

	handled := 0
	phase := 0
	worker := realrate.ProgramFunc(func(th *realrate.Thread, now time.Duration) realrate.Action {
		phase++
		switch phase % 4 {
		case 1:
			return realrate.Wait(wq)
		case 2:
			return realrate.Lock(m)
		case 3:
			return realrate.Compute(100_000)
		default:
			handled++
			return realrate.Unlock(m)
		}
	})
	spawn(t, sys, "worker", worker)

	wphase := 0
	waker := realrate.ProgramFunc(func(th *realrate.Thread, now time.Duration) realrate.Action {
		wphase++
		if wphase%2 == 1 {
			return realrate.Sleep(10 * time.Millisecond)
		}
		wq.WakeOne()
		return realrate.Compute(1000)
	})
	spawn(t, sys, "waker", waker)

	sys.Run(2 * time.Second)
	if handled < 50 {
		t.Fatalf("worker handled %d events, want ≈100", handled)
	}
	if m.Acquisitions() == 0 {
		t.Fatal("mutex never used")
	}
}

// TestZeroActionPanicsNamingThread pins what a program that returns the
// zero Action gets: a panic naming its thread, whether the zero Action is
// its first action or comes after a compute burst, a sleep or a queue
// transfer, and whether the thread is reserved or controlled.
func TestZeroActionPanicsNamingThread(t *testing.T) {
	for _, c := range []struct {
		name   string
		before func(q *realrate.Queue) realrate.Action
		opt    realrate.SpawnOption
	}{
		{"first", nil, realrate.Miscellaneous()},
		{"after-compute", func(*realrate.Queue) realrate.Action { return realrate.Compute(10_000) }, realrate.Miscellaneous()},
		{"after-sleep", func(*realrate.Queue) realrate.Action { return realrate.Sleep(5 * time.Millisecond) }, realrate.Reserve(100, 10*time.Millisecond)},
		{"after-produce", func(q *realrate.Queue) realrate.Action { return realrate.Produce(q, 64) }, realrate.Reserve(100, 10*time.Millisecond)},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := realrate.NewSystem(realrate.Config{})
			q := sys.NewQueue("q", 1024)
			name := "zero-" + c.name
			calls := 0
			spawn(t, sys, name, realrate.ProgramFunc(func(*realrate.Thread, time.Duration) realrate.Action {
				calls++
				if calls == 1 && c.before != nil {
					return c.before(q)
				}
				return realrate.Action{}
			}), c.opt)
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, name) || !strings.Contains(msg, "zero Action") {
					t.Fatalf("panic %q does not name thread %q and the zero Action", msg, name)
				}
			}()
			sys.Run(50 * time.Millisecond)
		})
	}
}

func TestThreadExitViaPublicAPI(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	n := 0
	mortal := realrate.ProgramFunc(func(th *realrate.Thread, now time.Duration) realrate.Action {
		n++
		if n > 5 {
			return realrate.Exit()
		}
		return realrate.Compute(1000)
	})
	th := spawn(t, sys, "mortal", mortal)
	sys.Run(time.Second)
	if th.State() != "exited" {
		t.Fatalf("state = %q, want exited", th.State())
	}
}

func TestEverySampler(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	var samples []time.Duration
	sys.Every(100*time.Millisecond, func(now time.Duration) {
		samples = append(samples, now)
	})
	sys.Run(time.Second)
	if len(samples) != 10 {
		t.Fatalf("got %d samples in 1s at 100ms, want 10", len(samples))
	}
	if samples[0] != 100*time.Millisecond {
		t.Fatalf("first sample at %v", samples[0])
	}
}

func TestStatsPopulated(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	spawn(t, sys, "hog", realrate.HogProgram(400_000))
	sys.Run(time.Second)
	st := sys.Stats()
	if st.Elapsed != time.Second {
		t.Fatalf("Elapsed = %v", st.Elapsed)
	}
	if st.Ticks < 990 || st.Ticks > 1010 {
		t.Fatalf("Ticks = %d", st.Ticks)
	}
	if st.ControllerSteps < 95 || st.ControllerSteps > 105 {
		t.Fatalf("ControllerSteps = %d", st.ControllerSteps)
	}
	if st.Dispatches == 0 || st.SchedOverhead == 0 {
		t.Fatal("overhead accounting empty")
	}
	if sys.ControllerCPU() == 0 {
		t.Fatal("controller consumed no CPU")
	}
}

func TestQualityEventDelivered(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	pipe := sys.NewQueue("pipe", 1<<20)
	pc := true
	producer := realrate.ProgramFunc(func(th *realrate.Thread, now time.Duration) realrate.Action {
		pc = !pc
		if pc {
			return realrate.Compute(400_000)
		}
		return realrate.Produce(pipe, 20_000)
	})
	// Impossible consumer: needs 400 cycles/byte at 2 MB/s = 2x the CPU.
	cc := true
	consumer := realrate.ProgramFunc(func(th *realrate.Thread, now time.Duration) realrate.Action {
		cc = !cc
		if cc {
			return realrate.Consume(pipe, 4096)
		}
		return realrate.Compute(400 * 4096)
	})
	if _, err := sys.Spawn("producer", producer, realrate.Reserve(100, 10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	spawn(t, sys, "consumer", consumer, realrate.RealRate(0, realrate.ConsumerOf(pipe)))

	events := 0
	sys.Observe(qualityTap{fn: func(ev realrate.QualityEvent) {
		events++
		if ev.Thread == nil || ev.Thread.Name() != "consumer" {
			t.Errorf("quality event thread = %v", ev.Thread)
		}
	}})
	sys.Run(20 * time.Second)
	if events == 0 {
		t.Fatal("no quality events under permanent overload")
	}
}

func TestPacedComputationHoldsTargetRate(t *testing.T) {
	// §4.5: a password cracker with a pseudo-progress metric. Each key
	// costs 100k cycles; the target is 1200 keys/s = 120M cycles/s = 30%
	// of the CPU. A hog competes for everything else.
	sys := realrate.NewSystem(realrate.Config{})
	keys := 0
	var pace *realrate.Pace
	cracker := realrate.ProgramFunc(func(th *realrate.Thread, now time.Duration) realrate.Action {
		if keys > 0 { // report the key finished by the previous burst
			pace.Complete(1)
		}
		keys++
		return realrate.Compute(100_000)
	})
	p := realrate.NewPace("cracker", 1200, 2400) // 2s of buffer
	pace = p
	th := spawn(t, sys, "cracker", cracker, realrate.RealRate(30*time.Millisecond, p))
	spawn(t, sys, "hog", realrate.HogProgram(400_000))
	sys.Run(10 * time.Second)

	rate := float64(keys) / 10
	if rate < 1050 || rate > 1450 {
		t.Fatalf("cracking rate = %.0f keys/s, want ≈1200", rate)
	}
	if a := th.Allocation(); a < 200 || a > 450 {
		t.Fatalf("cracker allocation = %d ppt, want ≈300", a)
	}
	// On rate means the virtual buffer hovers near half.
	if fl := p.FillLevel(); fl < 0.2 || fl > 0.8 {
		t.Fatalf("virtual fill = %.3f, want ≈0.5", fl)
	}
}

func TestRenegotiateViaPublicAPI(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	th, err := sys.Spawn("rt", realrate.HogProgram(400_000), realrate.Reserve(200, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(time.Second)
	if err := th.Renegotiate(500); err != nil {
		t.Fatalf("renegotiate failed: %v", err)
	}
	before := th.CPUTime()
	sys.Run(2 * time.Second)
	share := (th.CPUTime() - before).Seconds() / 2
	if share < 0.45 {
		t.Fatalf("renegotiated share = %.3f, want ≈0.50", share)
	}
	if err := th.Renegotiate(5000); err == nil {
		t.Fatal("impossible renegotiation accepted")
	}
}

func TestAperiodicClass(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	th, err := sys.Spawn("codec", realrate.HogProgram(400_000), realrate.Aperiodic(200))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(2 * time.Second)
	if th.Class() != "aperiodic-real-time" {
		t.Fatalf("class = %q", th.Class())
	}
	if th.Period() != 30*time.Millisecond {
		t.Fatalf("default period = %v, want 30ms", th.Period())
	}
	share := th.CPUTime().Seconds() / 2
	if share < 0.19 || share > 0.27 {
		t.Fatalf("aperiodic share = %.3f, want ≈0.20", share)
	}
}

func TestInteractiveClassViaPublicAPI(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	tty := sys.NewWaitQueue("tty")
	served := 0
	sphase := 0
	editor := realrate.ProgramFunc(func(th *realrate.Thread, now time.Duration) realrate.Action {
		sphase++
		if sphase%2 == 1 {
			return realrate.Wait(tty)
		}
		served++
		return realrate.Compute(2_000_000)
	})
	it := spawn(t, sys, "editor", editor, realrate.Interactive())
	uphase := 0
	user := realrate.ProgramFunc(func(th *realrate.Thread, now time.Duration) realrate.Action {
		uphase++
		if uphase%2 == 1 {
			return realrate.Sleep(50 * time.Millisecond)
		}
		tty.WakeOne()
		return realrate.Compute(1000)
	})
	if _, err := sys.Spawn("user", user, realrate.Reserve(20, 5*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	spawn(t, sys, "hog", realrate.HogProgram(400_000))
	sys.Run(10 * time.Second)

	if served < 150 {
		t.Fatalf("editor served %d events under load, want ≈200", served)
	}
	if it.Class() != "interactive" {
		t.Fatalf("class = %q", it.Class())
	}
}

func TestTracingViaPublicAPI(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	tr := sys.EnableTracing()
	spawn(t, sys, "hog", realrate.HogProgram(400_000))
	sys.Run(time.Second)
	var sb strings.Builder
	if err := tr.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dispatch,hog") {
		t.Fatal("CSV missing dispatch events")
	}
	// The hog's run segments, summed from its deschedule rows' ran_us
	// column, must cover most of the second it had the machine for.
	var ranUS float64
	for _, line := range strings.Split(sb.String(), "\n") {
		f := strings.Split(line, ",")
		if len(f) == 5 && f[1] == "deschedule" && f[2] == "hog" {
			us, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				t.Fatalf("bad ran_us in %q: %v", line, err)
			}
			ranUS += us
		}
	}
	if total := time.Duration(ranUS * float64(time.Microsecond)); total < 500*time.Millisecond {
		t.Fatalf("hog ran %v in the trace over a 1s run, want at least 500ms", total)
	}
}

func TestPublicAccessorsAndActions(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	q := sys.NewQueue("pipe", 4096)
	if q.Name() != "pipe" || q.Size() != 4096 || q.Fill() != 0 {
		t.Fatal("queue accessors wrong")
	}
	m := sys.NewMutex("m")
	wq := sys.NewWaitQueue("w")
	if wq.Waiters() != 0 {
		t.Fatal("fresh wait queue has waiters")
	}

	// Exercise every public action constructor in one program.
	phase := 0
	prog := realrate.ProgramFunc(func(th *realrate.Thread, now time.Duration) realrate.Action {
		phase++
		switch phase {
		case 1:
			return realrate.ComputeFor(time.Millisecond)
		case 2:
			return realrate.Produce(q, 512)
		case 3:
			return realrate.Consume(q, 512)
		case 4:
			return realrate.Lock(m)
		case 5:
			return realrate.Unlock(m)
		case 6:
			return realrate.Yield()
		case 7:
			return realrate.SleepUntil(now + 2*time.Millisecond)
		case 8:
			return realrate.Sleep(time.Millisecond)
		default:
			return realrate.Compute(100_000)
		}
	})
	th := spawn(t, sys, "omni", prog, realrate.RealRate(15*time.Millisecond, realrate.ConsumerOf(q)))
	sys.Run(time.Second)

	if th.Desired() < 0 || th.Allocation() < 0 {
		t.Fatal("negative allocation")
	}
	_ = th.Pressure()
	_ = th.Squished()
	if th.Period() != 15*time.Millisecond {
		t.Fatalf("period = %v", th.Period())
	}
	if q.Produced() != q.Consumed() {
		t.Fatalf("produced %d != consumed %d", q.Produced(), q.Consumed())
	}
	if m.Contended() != 0 {
		t.Fatal("uncontended mutex reported contention")
	}
	if sys.TotalProportion() <= 0 {
		t.Fatal("TotalProportion empty with registered jobs")
	}

	// Stop freezes the machine.
	sys.Stop()
	before := th.CPUTime()
	sys.Run(100 * time.Millisecond)
	if th.CPUTime() != before {
		t.Fatal("thread ran after Stop")
	}
}

func TestSpawnIntoJobSharesAllocation(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	// A two-thread miscellaneous job against a one-thread job: CPU is
	// allocated per job, so the pairs end up equal.
	lead := spawn(t, sys, "pair0", realrate.HogProgram(400_000))
	second := spawn(t, sys, "pair1", realrate.HogProgram(400_000), realrate.InJob(lead))
	solo := spawn(t, sys, "solo", realrate.HogProgram(400_000))
	sys.Run(8 * time.Second)

	pair := lead.CPUTime().Seconds() + second.CPUTime().Seconds()
	single := solo.CPUTime().Seconds()
	if r := pair / single; r < 0.75 || r > 1.35 {
		t.Fatalf("2-thread job %.2fs vs 1-thread job %.2fs; want per-job fairness", pair, single)
	}
	// Both members report the job's class and allocation.
	if second.Class() != "miscellaneous" || second.Allocation() != lead.Allocation() {
		t.Fatalf("member metadata: class=%q alloc=%d vs lead %d",
			second.Class(), second.Allocation(), lead.Allocation())
	}
}

// TestConfigSurface pins the public configuration to the values a
// non-test caller sets: every exported leaf of realrate.Config, walking
// into its nested structs and struct pointers, with the fault plan counted
// as one value. A knob added or removed must update this list in the same
// change.
func TestConfigSurface(t *testing.T) {
	want := []string{
		"Policy", "CPUs", "Faults",
		"Controller.BaseCost", "Controller.PerJobCost",
		"Controller.WatchdogIntervals", "Controller.WatchdogRecovery",
		"Overload.GapFactor", "Overload.TripIntervals", "Overload.RecoverIntervals",
		"Overload.ShedBatch", "Overload.LatencySLO", "Overload.SessionSLO",
		"CtlPlane.Mode", "CtlPlane.Shards",
	}
	var got []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			name := prefix + f.Name
			ft := f.Type
			if ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Struct && ft != reflect.TypeOf(realrate.FaultPlan{}) {
				walk(name+".", ft)
				continue
			}
			got = append(got, name)
		}
	}
	walk("", reflect.TypeOf(realrate.Config{}))
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("realrate.Config settable values = %d %v\nwant %d %v", len(got), got, len(want), want)
	}
}
