// Command rrexp regenerates the paper's evaluation: one sub-experiment per
// figure (5–8) plus the §2 motivation scenarios. It prints paper-style
// tables and can dump the underlying series as CSV for plotting. It is
// also the replay vehicle for the generated-workload invariant harness:
// a failing seed reported by the harness reproduces with the exact
// command line it printed.
//
// Usage:
//
//	rrexp -fig 5            # controller overhead vs. controlled processes
//	rrexp -fig 6 -csv out/  # controller responsiveness (pulse pipeline)
//	rrexp -fig 7            # response under competing load (squish)
//	rrexp -fig 8            # dispatch overhead vs. frequency
//	rrexp -pathfinder       # Mars Pathfinder priority inversion
//	rrexp -livelock         # spin-wait livelock
//	rrexp -openloop         # open-loop Poisson arrival sweep vs. policy
//	rrexp -openloop -cpus 4 # the same sweep on a 4-CPU machine
//	rrexp -churn            # admission-churn stress sweep vs. policy
//	rrexp -storm            # SMP storm: fixed backlog drained on 1/2/4/8 CPUs
//	rrexp -slo              # live-service SLO-attainment curves vs. offered load
//	rrexp -slo -sessions 100000 -controller event -cpus 8   # million-user-scale point
//	rrexp -all              # everything
//
//	rrexp -gen                                   # invariant harness: all families × seeds × policies
//	rrexp -gen -cpus 4                           # every family forced onto a 4-CPU machine
//	rrexp -gen -scenario churn -seed 17 -policy stride   # replay one failing seed
//	rrexp -gen -scenario mixed -seeds 50 -policy all     # wide sweep of one family
//	rrexp -gen -trace arrivals.csv -policy rbs           # replay a recorded arrival trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	realrate "repro"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload/gen"
)

func main() {
	var (
		fig        = flag.Int("fig", 0, "figure to reproduce (5, 6, 7, or 8)")
		all        = flag.Bool("all", false, "run every experiment")
		pathfinder = flag.Bool("pathfinder", false, "run the Mars Pathfinder scenario")
		livelock   = flag.Bool("livelock", false, "run the spin-wait livelock scenario")
		csvDir     = flag.String("csv", "", "directory to write CSV series into")
		ablate     = flag.Bool("ablate", false, "run the design-choice ablations")
		variance   = flag.Bool("variance", false, "run the allocation-variance comparison")
		freq       = flag.Bool("freq", false, "run the controller-frequency sweep")
		inter      = flag.Bool("interactive", false, "run the interactive-latency comparison")
		quick      = flag.Bool("quick", false, "shorter runs (for smoke testing)")
		seq        = flag.Bool("seq", false, "disable the parallel sweep runner (results are identical; serial is slower)")
		openloop   = flag.Bool("openloop", false, "run the open-loop arrival sweep")
		churn      = flag.Bool("churn", false, "run the admission-churn stress sweep")
		storm      = flag.Bool("storm", false, "run the SMP storm sweep (fixed backlog, time-to-drain vs. CPUs)")
		slo        = flag.Bool("slo", false, "run the live-service SLO-attainment sweep (attainment vs. offered load per policy × CPUs)")
		sessions   = flag.Int("sessions", 4000, "session count at offered load 1.0 for -slo")
		cpus       = flag.Int("cpus", 0, "machine CPU count for -openloop/-gen/-slo (0: each scenario's own; storm sweeps 1/2/4/8, slo sweeps 1/4/8)")

		genRun     = flag.Bool("gen", false, "run (or replay) generated scenarios through the invariant harness")
		scenario   = flag.String("scenario", "all", "generator family for -gen (or 'all'): "+fmt.Sprint(gen.Families()))
		seed       = flag.Uint64("seed", 0, "replay exactly this seed for -gen (0: sweep -seeds)")
		seeds      = flag.Int("seeds", 5, "number of seeds per family for -gen sweeps")
		policy     = flag.String("policy", "all", "policy for -gen (or 'all'): "+fmt.Sprint(gen.Policies()))
		scale      = flag.Float64("scale", 1, "workload scale for -gen (the shrinker's axis)")
		genDur     = flag.Duration("gendur", 0, "duration override for -gen (0: the family's drawn duration)")
		traceCSV   = flag.String("trace", "", "arrival trace CSV to replay for -gen (overrides the family's arrival process)")
		controller = flag.String("controller", "", "control-plane sampling mode for -gen: periodic (default) or event")
		shards     = flag.Int("shards", 0, "controller shard count for -gen (0 or 1: one shard, the paper's single sweep)")

		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap (allocation) profile to this file at exit")
	)
	flag.Parse()
	switch *fig {
	case 0, 5, 6, 7, 8:
	default:
		fmt.Fprintf(os.Stderr, "rrexp: -fig %d: no such figure (5, 6, 7, or 8)\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
	experiments.SetParallel(!*seq)

	stopProfiles := startProfiles(*cpuprofile, *memprofile)

	if *genRun {
		code := runGenerated(*scenario, *seed, *seeds, *policy, *scale, *genDur, *traceCSV, *cpus, *controller, *shards)
		stopProfiles()
		os.Exit(code)
	}

	if !*all && *fig == 0 && !*pathfinder && !*livelock && !*ablate && !*variance && !*freq && !*inter && !*openloop && !*churn && !*storm && !*slo {
		flag.Usage()
		os.Exit(2)
	}

	dump := func(name string, write func(w io.Writer) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		path := filepath.Join(*csvDir, name)
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := write(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}

	runDur := func(normal sim.Duration) sim.Duration {
		if *quick {
			return normal / 4
		}
		return normal
	}

	if *all || *fig == 5 {
		cfg := experiments.Fig5Config{RunFor: runDur(20 * sim.Second)}
		res := experiments.RunFig5(cfg)
		res.Print(os.Stdout)
		dump("fig5.csv", res.WriteCSV)
	}
	if *all || *fig == 6 {
		cfg := experiments.PipelineConfig{Duration: runDur(40 * sim.Second)}
		res := experiments.RunPipeline(cfg)
		res.Print(os.Stdout, "Figure 6: Controller Responsiveness")
		dump("fig6.csv", res.WriteCSV)
	}
	if *all || *fig == 7 {
		cfg := experiments.PipelineConfig{Duration: runDur(40 * sim.Second), WithHog: true}
		res := experiments.RunPipeline(cfg)
		res.Print(os.Stdout, "Figure 7: Controller Response Under Load")
		dump("fig7.csv", res.WriteCSV)
	}
	if *all || *fig == 8 {
		cfg := experiments.Fig8Config{RunFor: runDur(5 * sim.Second)}
		res := experiments.RunFig8(cfg)
		res.Print(os.Stdout)
		dump("fig8.csv", res.WriteCSV)
	}
	if *all || *pathfinder {
		res := experiments.RunPathfinder(runDur(60 * sim.Second))
		res.Print(os.Stdout)
	}
	if *all || *livelock {
		res := experiments.RunLivelock(runDur(10 * sim.Second))
		res.Print(os.Stdout)
	}
	if *all || *variance {
		res := experiments.RunVariance(runDur(30 * sim.Second))
		res.Print(os.Stdout)
	}
	if *all || *inter {
		res := experiments.RunInteractiveLatency(runDur(20 * sim.Second))
		res.Print(os.Stdout)
	}
	if *all || *freq {
		res := experiments.RunFrequencySweep(nil, runDur(15*sim.Second))
		res.Print(os.Stdout)
	}
	if *all || *openloop {
		res := experiments.RunOpenLoopSweep(nil, runDur(2*sim.Second), *cpus)
		res.Print(os.Stdout)
		dump("openloop.csv", res.WriteCSV)
	}
	if *all || *storm {
		var cc []int
		if *cpus > 0 {
			cc = []int{*cpus}
		}
		threads := []int{1000, 10000}
		if *quick {
			threads = []int{1000}
		}
		res := experiments.RunStormSMP(threads, cc, 0)
		res.Print(os.Stdout)
		dump("storm_smp.csv", res.WriteCSV)
	}
	if *slo {
		// Standalone (not under -all): the 100k+ points are scale runs,
		// sized by -sessions, not part of the figure regeneration.
		cfg := experiments.SLOConfig{
			Seed:       *seed,
			Sessions:   *sessions,
			Controller: *controller,
			Shards:     *shards,
			Duration:   time.Duration(runDur(sim.Second)),
		}
		if *quick {
			cfg.Sessions = *sessions / 4
		}
		if *cpus > 0 {
			cfg.CPUs = []int{*cpus}
		}
		if *policy != "all" {
			cfg.Policies = []string{*policy}
		}
		res := experiments.RunSLOSweep(cfg)
		res.Print(os.Stdout)
		dump("slo.csv", res.WriteCSV)
	}
	if *all || *churn {
		res := experiments.RunChurnStress(nil, runDur(2*sim.Second))
		res.Print(os.Stdout)
		dump("churn.csv", res.WriteCSV)
	}
	if *all || *ablate {
		experiments.PrintAblations(os.Stdout, runDur(40*sim.Second))
	}
	stopProfiles()
}

// startProfiles arms the requested pprof outputs and returns the function
// that flushes them; callers must invoke it on every exit path that
// should produce profiles. The heap profile runs a GC first so it shows
// live objects, not garbage awaiting collection.
func startProfiles(cpuPath, memPath string) (stop func()) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Printf("wrote %s\n", cpuPath)
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f.Close()
			fmt.Printf("wrote %s\n", memPath)
		}
	}
}

// runGenerated is the -gen mode: run seeded scenarios through the
// cross-policy invariant harness, or replay one exact point. Returns the
// process exit code: nonzero when any invariant broke.
func runGenerated(scenario string, seed uint64, seeds int, policy string, scale float64, dur time.Duration, traceCSV string, cpus int, controller string, shards int) int {
	if seeds < 1 {
		fmt.Fprintf(os.Stderr, "rrexp: -seeds must be at least 1, got %d\n", seeds)
		return 2
	}
	families := gen.Families()
	if scenario != "all" {
		families = []string{scenario}
	}
	var policies []string
	if policy != "all" {
		policies = []string{policy}
	}

	if traceCSV != "" {
		return runTraceReplay(traceCSV, policies, dur, cpus)
	}

	lo, hi := uint64(1), uint64(seeds)
	if seed != 0 {
		lo, hi = seed, seed
	}
	opts := gen.CheckOpts{Policies: policies, Scale: scale, Duration: dur, CPUs: cpus,
		Controller: controller, Shards: shards}
	failed := 0
	runs := 0
	for _, family := range families {
		for s := lo; s <= hi; s++ {
			violations, reports, err := gen.Check(family, s, opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			for _, r := range reports {
				runs++
				ladder := ""
				if r.FaultEvents > 0 || r.Degradations > 0 || r.Recoveries > 0 {
					ladder = fmt.Sprintf(" faults %-4d degr %-3d recov %-3d", r.FaultEvents, r.Degradations, r.Recoveries)
				}
				if r.OverloadEvents > 0 || r.Sheds > 0 || r.Throttled > 0 {
					ladder += fmt.Sprintf(" rung %s/%s sheds %-3d throttled %-3d",
						r.MaxRung, r.FinalRung, r.Sheds, r.Throttled)
				}
				fmt.Printf("%-9s seed %-4d %-12s threads %-4d exits %-4d kills %-4d admit %d/%d quality %-3d violations %d%s%s\n",
					family, s, r.Policy, r.Threads, r.Exits, r.Kills,
					r.AdmitOK, r.AdmitOK+r.AdmitRejected, r.QualityEvents,
					len(r.Violations)+r.TruncatedViolations, ladder, ctlSummary(controller, shards, r.CtlStats))
			}
			for _, v := range violations {
				failed++
				fmt.Printf("FAIL %s\n", v)
			}
		}
	}
	fmt.Printf("%d runs, %d invariant violations\n", runs, failed)
	if failed > 0 {
		return 1
	}
	return 0
}

// ctlSummary formats the per-shard sample/skip counters for the -gen
// report line. Empty unless a non-default control plane was requested:
// the default single periodic shard samples every job every epoch, so
// its counters say nothing the rest of the line does not.
func ctlSummary(controller string, shards int, stats []realrate.ShardStat) string {
	if (controller == "" || controller == "periodic") && shards <= 1 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, " ctl[")
	for i, st := range stats {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "s%d %d/%d", st.Shard, st.Sampled, st.Skipped)
	}
	b.WriteByte(']')
	return b.String()
}

// runTraceReplay replays a recorded arrival trace CSV through the
// invariant harness under the requested policies.
func runTraceReplay(path string, policies []string, dur time.Duration, cpus int) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	trace, err := gen.ParseTraceCSV(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if dur == 0 {
		dur = 500 * time.Millisecond
		if n := len(trace); n > 0 {
			dur = trace[n-1].At + 100*time.Millisecond
		}
	}
	sp := gen.Spec{
		Family:   "trace",
		Seed:     1,
		Duration: dur,
		CPUs:     cpus,
		Taskset:  gen.TasksetSpec{Misc: 1, PinnedHog: true},
		Arrivals: gen.ArrivalSpec{
			Process: gen.Trace, Trace: trace, MeanLife: 50 * time.Millisecond,
		},
	}
	if len(policies) == 0 {
		policies = gen.Policies()
	}
	failed := 0
	for _, pol := range policies {
		res, err := gen.Generate(sp).Run(gen.RunOpts{Policy: pol})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		r := res.Report
		fmt.Printf("trace %-12s arrivals %-4d threads %-4d exits %-4d violations %d\n",
			pol, len(trace), r.Threads, r.Exits, len(r.Violations)+r.TruncatedViolations)
		for _, v := range r.Violations {
			failed++
			fmt.Printf("FAIL %s\n", v)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}
