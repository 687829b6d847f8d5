package kernel_test

import (
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/rbs"
	"repro/internal/sim"
)

// smpTracer asserts the dual-run invariant exactly: between OnDispatch and
// OnDeschedule a thread occupies exactly one CPU, and no CPU hosts two
// overlapping segments. It also counts migrations for the bookkeeping
// checks.
type smpTracer struct {
	t          *testing.T
	runningOn  map[*kernel.Thread]int
	onCPU      map[int]*kernel.Thread
	migrations int
}

func newSMPTracer(t *testing.T) *smpTracer {
	return &smpTracer{
		t:         t,
		runningOn: make(map[*kernel.Thread]int),
		onCPU:     make(map[int]*kernel.Thread),
	}
}

func (tr *smpTracer) OnDispatch(now sim.Time, t *kernel.Thread) {
	cpu := t.CPU()
	if prev, ok := tr.runningOn[t]; ok {
		tr.t.Fatalf("dual run: %v dispatched on CPU %d while still on CPU %d at %v", t, cpu, prev, now)
	}
	if other, ok := tr.onCPU[cpu]; ok {
		tr.t.Fatalf("CPU %d double-booked: dispatching %v over %v at %v", cpu, t, other, now)
	}
	tr.runningOn[t] = cpu
	tr.onCPU[cpu] = t
}

func (tr *smpTracer) OnDeschedule(now sim.Time, t *kernel.Thread, ran sim.Duration) {
	cpu, ok := tr.runningOn[t]
	if !ok {
		tr.t.Fatalf("deschedule of %v which was never dispatched (at %v)", t, now)
	}
	delete(tr.runningOn, t)
	delete(tr.onCPU, cpu)
}

func (tr *smpTracer) OnWake(now sim.Time, t *kernel.Thread)                        {}
func (tr *smpTracer) OnBlock(now sim.Time, t *kernel.Thread, wq *kernel.WaitQueue) {}

func (tr *smpTracer) OnMigration(now sim.Time, t *kernel.Thread, from, to int) {
	tr.migrations++
	if from == to {
		tr.t.Fatalf("self-migration of %v on CPU %d at %v", t, from, now)
	}
	if t.Affinity() != kernel.AffinityAny {
		tr.t.Fatalf("pinned thread %v migrated %d -> %d at %v", t, from, to, now)
	}
	if _, running := tr.runningOn[t]; running {
		tr.t.Fatalf("running thread %v migrated %d -> %d at %v", t, from, to, now)
	}
}

func smpHog(cycles sim.Cycles) kernel.Program {
	op := kernel.OpCompute{Cycles: cycles}
	return kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		return &op
	})
}

// TestSMPParallelThroughput pins down the point of the refactor: N CPU-bound
// threads on N CPUs consume ~N seconds of CPU per simulated second, with
// zero dual-run violations, and per-CPU stats close against the machine
// totals.
func TestSMPParallelThroughput(t *testing.T) {
	for _, ncpu := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("cpus=%d", ncpu), func(t *testing.T) {
			eng := sim.NewEngine()
			cfg := kernel.DefaultConfig()
			cfg.CPUs = ncpu
			p := rbs.New()
			k := kernel.New(eng, cfg, p)
			tr := newSMPTracer(t)
			k.SetTracer(tr)

			threads := make([]*kernel.Thread, ncpu)
			for i := range threads {
				threads[i] = k.Spawn(fmt.Sprintf("hog%d", i), smpHog(1_000_000))
			}
			k.Start()
			eng.RunFor(sim.Second)
			k.Stop()

			st := k.Stats()
			if st.CPUs != ncpu {
				t.Fatalf("Stats.CPUs = %d, want %d", st.CPUs, ncpu)
			}
			// Unmanaged hogs are work-conserving: with one hog per CPU the
			// machine should be nearly fully busy on every CPU.
			wantBusy := sim.Duration(int64(sim.Second) * int64(ncpu) * 9 / 10)
			if st.ThreadTime() < wantBusy {
				t.Fatalf("ThreadTime = %v, want >= %v on %d CPUs (idle %v, overhead %v)",
					st.ThreadTime(), wantBusy, ncpu, st.Idle, st.Overhead)
			}
			// Every thread ran somewhere.
			for _, th := range threads {
				if th.CPUTime() == 0 {
					t.Fatalf("thread %v starved", th)
				}
			}
			// Per-CPU accounting closes against the machine totals.
			var disp, mig uint64
			var idle sim.Duration
			for c := 0; c < ncpu; c++ {
				cs := k.CPUStatsOf(c)
				disp += cs.Dispatches
				mig += cs.MigrationsIn
				idle += cs.Idle
			}
			if disp != st.Dispatches {
				t.Fatalf("per-CPU dispatches %d != machine %d", disp, st.Dispatches)
			}
			if mig != st.Migrations {
				t.Fatalf("per-CPU migrations %d != machine %d", mig, st.Migrations)
			}
			if idle != st.Idle {
				t.Fatalf("per-CPU idle %v != machine %v", idle, st.Idle)
			}
			if uint64(tr.migrations) != st.Migrations {
				t.Fatalf("tracer saw %d migrations, kernel counted %d", tr.migrations, st.Migrations)
			}
			if ncpu == 1 && st.Migrations != 0 {
				t.Fatalf("%d migrations on a single-CPU machine", st.Migrations)
			}
		})
	}
}

// TestSMPWorkPull exercises the migration seam directly. Round-robin
// placement lands hogs A and B on CPU 0 and a part-time sleeper on CPU 1;
// whenever the sleeper naps, CPU 1 goes idle and must pull the hog queued
// behind CPU 0's current instead of idling — the work-conserving point of
// the seam.
func TestSMPWorkPull(t *testing.T) {
	eng := sim.NewEngine()
	cfg := kernel.DefaultConfig()
	cfg.CPUs = 2
	p := rbs.New()
	k := kernel.New(eng, cfg, p)
	tr := newSMPTracer(t)
	k.SetTracer(tr)

	a := k.Spawn("hogA", smpHog(1_000_000)) // placed on CPU 0
	phase := 0
	sleeper := k.Spawn("sleeper", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		phase++
		if phase%2 == 1 {
			return kernel.OpCompute{Cycles: 400_000} // 1 ms at 400 MHz
		}
		return kernel.OpSleep{D: 5 * sim.Millisecond}
	})) // placed on CPU 1
	b := k.Spawn("hogB", smpHog(1_000_000)) // placed on CPU 0, behind hogA
	k.Start()
	eng.RunFor(sim.Second)
	k.Stop()

	st := k.Stats()
	if st.Migrations == 0 {
		t.Fatal("no migrations: idle CPU 1 never pulled the hog queued on CPU 0")
	}
	var perThread uint64
	for _, th := range k.Threads() {
		perThread += th.Migrations()
	}
	if perThread != st.Migrations {
		t.Fatalf("per-thread migration sum %d != machine %d", perThread, st.Migrations)
	}
	// After the pull the two hogs split the machine with the sleeper; the
	// machine must not serialize them on one CPU (each would then be
	// capped well below ~900 ms of the 2 s capacity).
	for _, th := range []*kernel.Thread{a, b} {
		if th.CPUTime() < 700*sim.Millisecond {
			t.Fatalf("hog %v got only %v of CPU under work-pull", th, th.CPUTime())
		}
	}
	if sleeper.CPUTime() == 0 {
		t.Fatal("sleeper starved")
	}
}

// TestSMPAffinityPinning verifies pins are absolute: a pinned thread only
// ever runs on its CPU, is never migrated, and SpawnAffinity rejects
// out-of-range pins.
func TestSMPAffinityPinning(t *testing.T) {
	eng := sim.NewEngine()
	cfg := kernel.DefaultConfig()
	cfg.CPUs = 2
	p := rbs.New()
	k := kernel.New(eng, cfg, p)

	pinned := k.SpawnAffinity("pinned", smpHog(500_000), 1)
	free := k.Spawn("free", smpHog(500_000))
	var wrongCPU bool
	k.SetTracer(traceFunc(func(now sim.Time, th *kernel.Thread) {
		if th == pinned && th.CPU() != 1 {
			wrongCPU = true
		}
	}))
	k.Start()
	eng.RunFor(500 * sim.Millisecond)
	k.Stop()

	if wrongCPU {
		t.Fatal("pinned thread dispatched off its CPU")
	}
	if pinned.Migrations() != 0 {
		t.Fatalf("pinned thread migrated %d times", pinned.Migrations())
	}
	if pinned.CPUTime() == 0 || free.CPUTime() == 0 {
		t.Fatalf("starvation: pinned %v free %v", pinned.CPUTime(), free.CPUTime())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("SpawnAffinity(cpu=7) on a 2-CPU machine did not panic")
		}
	}()
	k.SpawnAffinity("bad", smpHog(1), 7)
}

// traceFunc adapts a dispatch func to kernel.Tracer.
type traceFunc func(now sim.Time, t *kernel.Thread)

func (f traceFunc) OnDispatch(now sim.Time, t *kernel.Thread)                     { f(now, t) }
func (f traceFunc) OnDeschedule(now sim.Time, t *kernel.Thread, ran sim.Duration) {}
func (f traceFunc) OnWake(now sim.Time, t *kernel.Thread)                         {}
func (f traceFunc) OnBlock(now sim.Time, t *kernel.Thread, wq *kernel.WaitQueue)  {}
func (f traceFunc) OnMigration(now sim.Time, t *kernel.Thread, from, to int)      {}
