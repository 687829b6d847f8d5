package experiments

import (
	"fmt"
	"io"

	"repro/internal/kernel"
	"repro/internal/rbs"
	"repro/internal/sim"
)

// StormConfig sizes the ContextSwitchStorm scaling scenario: a machine
// saturated with registered CPU-bound threads, all dispatch-point churn.
// It is the scheduler-core stress test behind the large-N scaling claims:
// every thread burns its budget, naps to its next period, and wakes in a
// thundering herd at period boundaries, so the dispatcher's runnable set
// stays in the hundreds-to-thousands while dispatches fire every tick.
type StormConfig struct {
	// Threads is the number of registered CPU-bound threads.
	Threads int
	// RunFor is the simulated window (default 1 s); with Work set it is
	// the cap on the completion run (default 120 s).
	RunFor sim.Duration
	// Discipline selects the dispatch order under test (RMS default).
	Discipline rbs.Discipline
	// CPUs sizes the machine (0 or 1: single-CPU).
	CPUs int
	// Work, when positive, turns the storm into a run-to-completion
	// benchmark: every thread exits after burning Work cycles and the
	// machine runs until all threads are done (or RunFor caps it).
	// SimElapsed then measures how fast the machine retires a fixed
	// backlog — the number that must shrink as CPUs grow.
	Work sim.Cycles
}

// StormResult reports what the machine did during the storm.
type StormResult struct {
	Threads    int
	CPUs       int
	Dispatches uint64
	Switches   uint64
	Wakeups    uint64
	Migrations uint64
	ThreadTime sim.Duration
	Overhead   sim.Duration
	Idle       sim.Duration
	Missed     uint64
	// SimElapsed is the simulated time the run covered (time-to-drain in
	// Work mode).
	SimElapsed sim.Duration
	// Completed counts threads that finished their Work (Work mode only).
	Completed int
}

// RunContextSwitchStorm spawns cfg.Threads registered hogs with mixed
// periods and proportions summing to ≈90% of the CPU, and runs the
// machine for the window. Beyond a few hundred threads the 1 ms minimum
// allocation oversubscribes the machine by construction (exactly the
// paper's quantization limit, §4.3), which maximizes budget-exhaustion
// naps and period-boundary wakeups — the worst case for the dispatcher's
// data structures.
func RunContextSwitchStorm(cfg StormConfig) StormResult {
	n := cfg.Threads
	if n <= 0 {
		n = 100
	}
	if cfg.RunFor == 0 {
		cfg.RunFor = sim.Second
		if cfg.Work > 0 {
			cfg.RunFor = 120 * sim.Second
		}
	}
	ncpu := cfg.CPUs
	if ncpu < 1 {
		ncpu = 1
	}
	eng := sim.NewEngine()
	p := rbs.New()
	p.Discipline = cfg.Discipline
	kcfg := kernel.DefaultConfig()
	kcfg.CPUs = ncpu
	k := kernel.New(eng, kcfg, p)
	periods := [...]sim.Duration{
		10 * sim.Millisecond,
		20 * sim.Millisecond,
		30 * sim.Millisecond,
		50 * sim.Millisecond,
		100 * sim.Millisecond,
	}
	// Registered proportions fill ~90% of the whole machine (CPUs × 1000
	// ppt), clamped to whole ppt per thread.
	prop := 900 * ncpu / n
	if prop < 1 {
		prop = 1
	}
	if prop > 1000 {
		prop = 1000
	}
	exited := 0
	var drainedAt sim.Time
	k.SetExitHook(func(t *kernel.Thread, now sim.Time) {
		exited++
		if exited == n {
			drainedAt = now
		}
	})
	// The infinite hog is stateless, so every Work=0 thread shares one
	// program instance: a 10k-thread storm spawn costs two allocations for
	// the program, not two per thread. Finite hogs carry per-thread
	// remaining-work state and stay individual.
	hog := hogProgram()
	for i := 0; i < n; i++ {
		var prog kernel.Program
		if cfg.Work > 0 {
			prog = finiteHogProgram(cfg.Work)
		} else {
			prog = hog
		}
		th := k.Spawn("storm", prog)
		res := rbs.Reservation{Proportion: prop, Period: periods[i%len(periods)]}
		if err := p.SetReservation(th, res); err != nil {
			panic(err)
		}
	}
	k.Start()
	if cfg.Work > 0 {
		// Run-to-completion: advance in chunks until the backlog drains.
		const chunk = 250 * sim.Millisecond
		for ran := sim.Duration(0); exited < n && ran < cfg.RunFor; ran += chunk {
			eng.RunFor(chunk)
		}
	} else {
		eng.RunFor(cfg.RunFor)
	}
	k.Stop()
	st := k.Stats()
	elapsed := st.Elapsed
	if cfg.Work > 0 && exited == n {
		// The drain loop advances in coarse chunks; the exit hook pins the
		// exact instant the backlog emptied.
		elapsed = sim.Duration(drainedAt)
	}
	return StormResult{
		Threads:    n,
		CPUs:       ncpu,
		Dispatches: st.Dispatches,
		Switches:   st.Switches,
		Wakeups:    st.Wakeups,
		Migrations: st.Migrations,
		ThreadTime: st.ThreadTime(),
		Overhead:   st.Overhead,
		Idle:       st.Idle,
		Missed:     p.MissedDeadlines(),
		SimElapsed: elapsed,
		Completed:  exited,
	}
}

// hogProgram returns a CPU-bound program of 1M-cycle bursts.
func hogProgram() kernel.Program {
	return kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		return kernel.Compute(1_000_000)
	})
}

// finiteHogProgram burns total cycles in 1M-cycle bursts, then exits.
func finiteHogProgram(total sim.Cycles) kernel.Program {
	remaining := total
	return kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		if remaining <= 0 {
			return kernel.Exit()
		}
		burst := sim.Cycles(1_000_000)
		if remaining < burst {
			burst = remaining
		}
		remaining -= burst
		return kernel.Compute(burst)
	})
}

// SMPStormResult is the storm swept across machine sizes: a fixed backlog
// of per-thread work retired on 1..N CPUs. Time-to-drain must shrink as
// CPUs grow — the throughput claim of the SMP kernel.
type SMPStormResult struct {
	WorkPerThread sim.Cycles
	Points        []StormResult
}

// RunStormSMP runs the run-to-completion storm over threads × cpus through
// the parallel sweep runner. workPerThread = 0 picks a default sized so a
// 1-CPU machine takes a few simulated seconds per thousand threads.
func RunStormSMP(threads, cpus []int, workPerThread sim.Cycles) SMPStormResult {
	if len(threads) == 0 {
		threads = []int{1000, 10000}
	}
	if len(cpus) == 0 {
		cpus = []int{1, 2, 4, 8}
	}
	if workPerThread == 0 {
		workPerThread = 4_000_000 // 10 ms at 400 MHz
	}
	pts := Sweep(len(threads)*len(cpus), func(i int) StormResult {
		return RunContextSwitchStorm(StormConfig{
			Threads: threads[i/len(cpus)],
			CPUs:    cpus[i%len(cpus)],
			Work:    workPerThread,
		})
	})
	return SMPStormResult{WorkPerThread: workPerThread, Points: pts}
}

// Print writes the SMP storm sweep as a table.
func (res SMPStormResult) Print(w io.Writer) {
	section(w, "SMP storm: fixed backlog, time-to-drain vs. CPUs")
	fmt.Fprintf(w, "work per thread: %d cycles\n", res.WorkPerThread)
	fmt.Fprintf(w, "%-10s %-6s %-12s %-12s %-12s %-12s %s\n",
		"threads", "cpus", "sim-elapsed", "dispatches", "migrations", "idle", "completed")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%-10d %-6d %-12v %-12d %-12d %-12v %d/%d\n",
			p.Threads, p.CPUs, p.SimElapsed, p.Dispatches, p.Migrations, p.Idle, p.Completed, p.Threads)
	}
}

// WriteCSV dumps the SMP storm sweep for plotting.
func (res SMPStormResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "threads,cpus,sim_elapsed_s,dispatches,migrations,idle_s,completed"); err != nil {
		return err
	}
	for _, p := range res.Points {
		if _, err := fmt.Fprintf(w, "%d,%d,%.6f,%d,%d,%.6f,%d\n",
			p.Threads, p.CPUs, p.SimElapsed.Seconds(), p.Dispatches, p.Migrations,
			p.Idle.Seconds(), p.Completed); err != nil {
			return err
		}
	}
	return nil
}
