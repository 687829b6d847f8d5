// Benchmarks regenerating every figure in the paper's evaluation section,
// plus ablation benches for the design choices DESIGN.md calls out. Each
// benchmark runs the corresponding experiment harness on a shortened window
// per iteration and reports the figure's headline numbers as custom
// metrics, so `go test -bench=.` reproduces the whole evaluation:
//
//	Figure 5 → BenchmarkFig5ControllerOverhead (slope/intercept/R²)
//	Figure 6 → BenchmarkFig6Responsiveness (response time, fill, tracking)
//	Figure 7 → BenchmarkFig7UnderLoad (+ hog share under squish)
//	Figure 8 → BenchmarkFig8DispatchOverhead (overhead at 4 kHz, knee)
//	§2       → BenchmarkPathfinderInversion, BenchmarkSpinWaitLivelock
package realrate_test

import (
	"fmt"
	"testing"
	"time"

	realrate "repro"
	"repro/internal/experiments"
	"repro/internal/pid"
	"repro/internal/rbs"
	"repro/internal/sim"
	"repro/internal/workload/gen"
)

// BenchmarkFig5SweepSerial and ...SweepParallel A/B the experiment sweep
// runner itself on Figure 5's process-count sweep: identical per-point
// results (asserted by TestFig5ParallelMatchesSerial), different wall time
// on multicore hosts.
func BenchmarkFig5SweepSerial(b *testing.B) {
	experiments.SetParallel(false)
	defer experiments.SetParallel(true)
	for i := 0; i < b.N; i++ {
		experiments.RunFig5(experiments.Fig5Config{
			MaxProcesses: 40, Step: 10, RunFor: 5 * sim.Second,
		})
	}
}

func BenchmarkFig5SweepParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunFig5(experiments.Fig5Config{
			MaxProcesses: 40, Step: 10, RunFor: 5 * sim.Second,
		})
	}
}

func BenchmarkFig5ControllerOverhead(b *testing.B) {
	var fit struct{ slope, intercept, r2, at40 float64 }
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig5(experiments.Fig5Config{
			MaxProcesses: 40, Step: 10, RunFor: 5 * sim.Second,
		})
		fit.slope = res.Fit.Slope
		fit.intercept = res.Fit.Intercept
		fit.r2 = res.Fit.R2
		fit.at40 = res.At40
	}
	b.ReportMetric(fit.slope, "slope")
	b.ReportMetric(fit.intercept, "intercept")
	b.ReportMetric(fit.r2, "R2")
	b.ReportMetric(fit.at40*100, "pct-at-40-jobs")
}

func BenchmarkFig6Responsiveness(b *testing.B) {
	var last experiments.PipelineResult
	for i := 0; i < b.N; i++ {
		last = experiments.RunPipeline(experiments.PipelineConfig{
			Duration: 10 * sim.Second,
			// One rising pulse inside the shortened window.
			PulseWidths: []sim.Duration{2 * sim.Second},
		})
	}
	b.ReportMetric(last.ResponseTime.Seconds()*1000, "response-ms")
	b.ReportMetric(last.MeanFill, "mean-fill")
	b.ReportMetric(last.TrackingError*100, "tracking-err-pct")
}

func BenchmarkFig7UnderLoad(b *testing.B) {
	var last experiments.PipelineResult
	for i := 0; i < b.N; i++ {
		last = experiments.RunPipeline(experiments.PipelineConfig{
			Duration:    10 * sim.Second,
			PulseWidths: []sim.Duration{2 * sim.Second},
			WithHog:     true,
		})
	}
	b.ReportMetric(last.ResponseTime.Seconds()*1000, "response-ms")
	b.ReportMetric(last.HogShare, "hog-share")
	b.ReportMetric(last.TrackingError*100, "tracking-err-pct")
}

func BenchmarkFig8DispatchOverhead(b *testing.B) {
	var last experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		last = experiments.RunFig8(experiments.Fig8Config{
			Frequencies: []int64{100, 1000, 4000, 10000},
			RunFor:      2 * sim.Second,
		})
	}
	b.ReportMetric(last.OverheadAt4kHz*100, "overhead-at-4kHz-pct")
	b.ReportMetric(float64(last.KneeHz), "knee-hz")
}

// BenchmarkStormDispatch measures wall time per simulated second of a
// machine saturated with N registered CPU-bound threads — the dispatcher's
// large-N scaling curve. With the linear-scan runnable queue this grew
// O(n) per dispatch; the indexed-heap core keeps it near-logarithmic.
func BenchmarkStormDispatch(b *testing.B) {
	for _, n := range []int{10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var last experiments.StormResult
			for i := 0; i < b.N; i++ {
				last = experiments.RunContextSwitchStorm(experiments.StormConfig{
					Threads: n, RunFor: sim.Second,
				})
			}
			b.ReportMetric(float64(last.Dispatches), "dispatches")
			b.ReportMetric(float64(last.Wakeups), "wakeups")
		})
	}
}

// BenchmarkStormSMP measures wall time to drain a fixed backlog — n
// registered CPU-bound threads, each owing a fixed amount of work — on
// machines of 1/2/4/8 CPUs. More CPUs retire the same backlog in fewer
// simulated seconds (sim_elapsed_s), which is what pulls the wall time
// down with it: the throughput claim of the SMP kernel.
func BenchmarkStormSMP(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		for _, cpus := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("n=%d/cpus=%d", n, cpus), func(b *testing.B) {
				b.ReportAllocs()
				var last experiments.StormResult
				for i := 0; i < b.N; i++ {
					last = experiments.RunContextSwitchStorm(experiments.StormConfig{
						Threads: n, CPUs: cpus, Work: 4_000_000,
					})
				}
				if last.Completed != n {
					b.Fatalf("backlog not drained: %d/%d threads completed in %v",
						last.Completed, n, last.SimElapsed)
				}
				b.ReportMetric(last.SimElapsed.Seconds(), "sim_elapsed_s")
				b.ReportMetric(float64(last.Migrations), "migrations")
			})
		}
	}
}

// BenchmarkChurnThroughput measures wall time per simulated second of the
// admission-churn stress: Spawn/Kill/Renegotiate cycles near the admission
// ceiling with the invariant checker live — the Remove/exit hot path under
// load. ops/simsec reports how much churn each simulated second absorbed.
func BenchmarkChurnThroughput(b *testing.B) {
	for _, rate := range []float64{200, 800} {
		b.Run(fmt.Sprintf("rate=%.0f", rate), func(b *testing.B) {
			b.ReportAllocs()
			var last experiments.ChurnResult
			for i := 0; i < b.N; i++ {
				last = experiments.RunChurnStress([]float64{rate}, sim.Second)
			}
			ops, violations := 0, 0
			for _, p := range last.Points {
				ops += p.Spawned + p.Kills
				violations += p.Violations
			}
			if violations > 0 {
				b.Fatalf("churn bench found %d invariant violations", violations)
			}
			b.ReportMetric(float64(ops)/float64(len(last.Points)), "ops/simsec")
		})
	}
}

// BenchmarkFig5Scale extends Figure 5's x-axis to 1000 controlled
// processes through the parallel sweep runner.
func BenchmarkFig5Scale(b *testing.B) {
	var last experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		last = experiments.RunFig5(experiments.Fig5Config{
			MaxProcesses: 1000, Step: 250, RunFor: 2 * sim.Second,
		})
	}
	b.ReportMetric(last.Points[len(last.Points)-1].Overhead*100, "pct-at-1000-jobs")
}

func BenchmarkPathfinderInversion(b *testing.B) {
	var last experiments.PathfinderResult
	for i := 0; i < b.N; i++ {
		last = experiments.RunPathfinder(20 * sim.Second)
	}
	b.ReportMetric(float64(last.PriorityResets), "resets-fixed-priority")
	b.ReportMetric(float64(last.RealRateResets), "resets-real-rate")
}

func BenchmarkSpinWaitLivelock(b *testing.B) {
	var last experiments.LivelockResult
	for i := 0; i < b.N; i++ {
		last = experiments.RunLivelock(5 * sim.Second)
	}
	b.ReportMetric(float64(last.PriorityInputs), "inputs-fixed-priority")
	b.ReportMetric(float64(last.RealRateInputs), "inputs-real-rate")
}

// BenchmarkAllocationVariance regenerates the abstract's claim of "lower
// variance in the amount of cycles allocated to a thread" against Linux
// goodness and lottery scheduling.
func BenchmarkAllocationVariance(b *testing.B) {
	var last experiments.VarianceResult
	for i := 0; i < b.N; i++ {
		last = experiments.RunVariance(10 * sim.Second)
	}
	for _, row := range last.Rows {
		switch row.Scheduler {
		case "real-rate (this paper)":
			b.ReportMetric(row.StdShare, "std-realrate")
		case "linux-goodness":
			b.ReportMetric(row.StdShare, "std-linux")
		case "lottery (a-priori tickets)":
			b.ReportMetric(row.StdShare, "std-lottery")
		}
	}
}

// BenchmarkInteractiveLatency regenerates §4.1's interactive-response
// claim under full CPU load.
func BenchmarkInteractiveLatency(b *testing.B) {
	var last experiments.InteractiveResult
	for i := 0; i < b.N; i++ {
		last = experiments.RunInteractiveLatency(10 * sim.Second)
	}
	for _, row := range last.Rows {
		if row.Scheduler == "real-rate (this paper)" {
			b.ReportMetric(row.P99.Seconds()*1000, "p99-ms-realrate")
			b.ReportMetric(float64(row.Handled), "handled-realrate")
		}
	}
}

// --- Ablation benches (design choices called out in DESIGN.md §5) ---

func benchGain(b *testing.B, name string, gains pid.Config) {
	var last experiments.GainAblationResult
	for i := 0; i < b.N; i++ {
		last = experiments.RunGainAblation(name, gains, 10*sim.Second)
	}
	b.ReportMetric(last.ResponseTime.Seconds()*1000, "response-ms")
	b.ReportMetric(last.FillStd, "fill-std")
	b.ReportMetric(last.TrackingError*100, "tracking-err-pct")
}

func BenchmarkAblationFilterPOnly(b *testing.B) {
	benchGain(b, "P", pid.Config{Kp: 1.0})
}

func BenchmarkAblationFilterPI(b *testing.B) {
	benchGain(b, "PI", pid.Config{Kp: 1.0, Ki: 4.0})
}

func BenchmarkAblationFilterPID(b *testing.B) {
	benchGain(b, "PID", pid.Config{Kp: 1.0, Ki: 4.0, Kd: 0.05})
}

func BenchmarkAblationReclaimOn(b *testing.B) {
	var last experiments.ReclaimAblationResult
	for i := 0; i < b.N; i++ {
		last = experiments.RunReclaimAblation(true, 10*sim.Second)
	}
	b.ReportMetric(last.ConsumerAlloc, "bottlenecked-alloc-ppt")
	b.ReportMetric(last.HogShare, "hog-share")
}

func BenchmarkAblationReclaimOff(b *testing.B) {
	var last experiments.ReclaimAblationResult
	for i := 0; i < b.N; i++ {
		last = experiments.RunReclaimAblation(false, 10*sim.Second)
	}
	b.ReportMetric(last.ConsumerAlloc, "bottlenecked-alloc-ppt")
	b.ReportMetric(last.HogShare, "hog-share")
}

func BenchmarkAblationDispatcherRMS(b *testing.B) {
	var last experiments.DisciplineAblationResult
	for i := 0; i < b.N; i++ {
		last = experiments.RunDisciplineAblation(rbs.RMS, 5*sim.Second)
	}
	b.ReportMetric(float64(last.MissedDeadlines), "missed-deadlines")
}

func BenchmarkAblationDispatcherEDF(b *testing.B) {
	var last experiments.DisciplineAblationResult
	for i := 0; i < b.N; i++ {
		last = experiments.RunDisciplineAblation(rbs.EDF, 5*sim.Second)
	}
	b.ReportMetric(float64(last.MissedDeadlines), "missed-deadlines")
}

func BenchmarkAblationQuantizedDispatch(b *testing.B) {
	var last experiments.QuantizationAblationResult
	for i := 0; i < b.N; i++ {
		last = experiments.RunQuantizationAblation(false, 5*sim.Second)
	}
	b.ReportMetric(last.Overdelivery, "overdelivery-x")
}

func BenchmarkAblationPreciseDispatch(b *testing.B) {
	var last experiments.QuantizationAblationResult
	for i := 0; i < b.N; i++ {
		last = experiments.RunQuantizationAblation(true, 5*sim.Second)
	}
	b.ReportMetric(last.Overdelivery, "overdelivery-x")
}

// BenchmarkSLOSessions prices the live-service scenario family at scale:
// n sessions offered over one simulated second to an 8-CPU machine under
// rbs and the sharded event-driven control plane — exactly the spec
// rrexp -slo runs (experiments.SLOSpec), with the invariant checker off,
// so the measured cost is the workload plus the control plane and nothing
// else. ms_per_epoch is the host wall-clock per 10 ms control epoch, the
// budget the scale runs are held to; sessions_started/completed confirm
// the machine actually served the storm rather than refusing it at the
// door.
func BenchmarkSLOSessions(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var last gen.SessionReport
			var host time.Duration
			for i := 0; i < b.N; i++ {
				sp := experiments.SLOSpec(1, n, 1.0, time.Second, 8)
				start := time.Now()
				res, err := gen.Generate(sp).Run(gen.RunOpts{
					Policy: "rbs", Controller: "event", NoInvariants: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				host = time.Since(start)
				last = res.Report.Sessions
			}
			if last.Started == 0 || last.Completed == 0 {
				b.Fatalf("storm never served: %+v", last)
			}
			epochs := float64(time.Second / (10 * time.Millisecond))
			b.ReportMetric(float64(host)/float64(time.Millisecond)/epochs, "ms_per_epoch")
			b.ReportMetric(float64(last.Started), "sessions_started")
			b.ReportMetric(float64(last.Completed), "sessions_completed")
		})
	}
}

// BenchmarkOverloadGovernor prices the overload governor on the public
// storm path: the same hog storm with Config.Overload nil ("off" — the
// committed-golden configuration) and with the governor armed but never
// tripping ("idle" — an astronomically high GapFactor, so every interval
// pays the full signal assembly, SLO tap, and ladder bookkeeping while
// the rung stays at normal). The dispatches metric is the storm's
// throughput on the simulated machine and must be IDENTICAL across the
// two runs — an idle governor steals zero simulated CPU and never
// perturbs the schedule (TestGovernorIdleZeroThroughputCost pins this at
// ≤1%, actually 0%, in the regular test suite). The ns/op delta is the
// host-side instrumentation cost of the SLO tap and governor sampling —
// wall clock, not machine throughput.
func BenchmarkOverloadGovernor(b *testing.B) {
	run := func(b *testing.B, overload *realrate.OverloadConfig) {
		b.ReportAllocs()
		var dispatches uint64
		for i := 0; i < b.N; i++ {
			sys := realrate.NewSystem(realrate.Config{Overload: overload})
			for j := 0; j < 200; j++ {
				if _, err := sys.Spawn(fmt.Sprintf("hog%d", j),
					realrate.HogProgram(400_000)); err != nil {
					b.Fatal(err)
				}
			}
			sys.Run(10e9)
			dispatches = sys.Stats().Dispatches
			if overload != nil && sys.Health().OverloadRung != "normal" {
				b.Fatalf("governor not idle: rung %s", sys.Health().OverloadRung)
			}
		}
		b.ReportMetric(float64(dispatches), "dispatches")
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("idle", func(b *testing.B) {
		run(b, &realrate.OverloadConfig{GapFactor: 1e12})
	})
}
