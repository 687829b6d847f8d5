// Command rrtop runs a mixed workload on the real-rate stack and prints a
// top(1)-style table each simulated second: every thread's class,
// allocation, period, pressure, CPU share, and — via the observer layer —
// dispatch and actuation counts. It makes the controller's decisions
// visible at a glance: watch the decoder get its share, the hogs split the
// leftover, and the editor get sized from its bursts.
//
// With -faults it adds a sensor thread driven by a custom progress feed,
// arms a small fault schedule against it (a frozen progress signal, then
// dropped actuations) and shows the graceful-degradation ladder at work:
// the RUNG column walks real-rate → fallback → misc and back, and a
// health line tracks the system-wide fault counters.
//
// With -overload it arms the overload governor, fires a storm of
// short-lived low-importance hogs mid-run, and shows the brownout ladder:
// a status line tracks the system rung and the wake→dispatch SLO
// percentiles, and the high-importance resident hog survives while the
// storm is shed around it.
//
// The table renders incrementally: a thread's row is reprinted only when
// it changed since the previous refresh, so a hundred-thread storm prints
// the handful of moving rows plus one "unchanged" summary instead of a
// hundred near-identical lines per second.
package main

import (
	"flag"
	"fmt"
	"time"

	realrate "repro"
)

// activity tallies per-thread scheduling events through the public
// Observer seam, replacing ad-hoc polling of kernel internals.
type activity struct {
	realrate.NopObserver
	dispatches map[*realrate.Thread]uint64
	actuations map[*realrate.Thread]uint64
}

// sensorFeed is the -faults demo's custom progress source: it wiggles
// inside the healthy pressure band every sample, so the only way it goes
// bit-flat is the injected freeze.
type sensorFeed struct{}

func (sensorFeed) Pressure(now time.Duration) float64 {
	return 0.1 + float64((now/time.Millisecond)%13)/100
}
func (sensorFeed) Describe() string { return "sensor feed" }

func newActivity() *activity {
	return &activity{
		dispatches: make(map[*realrate.Thread]uint64),
		actuations: make(map[*realrate.Thread]uint64),
	}
}

func (a *activity) OnDispatch(now time.Duration, th *realrate.Thread, cpu int) {
	if th != nil {
		a.dispatches[th]++
	}
}

func (a *activity) OnActuation(now time.Duration, th *realrate.Thread, prop int, period time.Duration) {
	if th != nil {
		a.actuations[th]++
	}
}

func main() {
	dur := flag.Duration("dur", 15*time.Second, "simulated duration")
	cpus := flag.Int("cpus", 1, "number of simulated CPUs")
	faults := flag.Bool("faults", false, "inject a demo fault schedule against a sensor thread and watch the degradation ladder")
	overload := flag.Bool("overload", false, "arm the overload governor and fire a mid-run storm of short-lived hogs to watch the brownout ladder")
	controller := flag.String("controller", "periodic", "control-plane sampling mode: periodic or event")
	shards := flag.Int("shards", 0, "controller shard count (0 or 1: one shard, the paper's single sweep)")
	flag.Parse()

	cfg := realrate.Config{CPUs: *cpus}
	switch *controller {
	case "", "periodic":
	case "event":
		cfg.CtlPlane.Mode = realrate.ControllerEventDriven
	default:
		fmt.Printf("rrtop: unknown -controller %q (want periodic or event)\n", *controller)
		return
	}
	cfg.CtlPlane.Shards = *shards
	if *faults {
		cfg.Faults = &realrate.FaultPlan{Seed: 1, Specs: []realrate.FaultSpec{
			{Kind: realrate.FaultFreezeSignal, Target: "sensor", At: 4 * time.Second, For: 3 * time.Second},
			{Kind: realrate.FaultDropActuation, Target: "sensor", At: 9 * time.Second, For: time.Second},
		}}
		cfg.Controller.WatchdogIntervals = 20
		cfg.Controller.WatchdogRecovery = 10
	}
	if *overload {
		// Fast trip/recover so a 15 s run shows the whole ladder cycle.
		// The resident pipeline plus hog legitimately desire ~2.3× the
		// machine (that is squish's normal operating point), so the demo
		// trip band sits above it; the storm blows straight past it.
		cfg.Overload = &realrate.OverloadConfig{GapFactor: 3.5, TripIntervals: 10, RecoverIntervals: 25}
	}
	sys := realrate.NewSystem(cfg)
	act := newActivity()
	sys.Observe(act)

	// A three-stage media pipeline...
	compressed := sys.NewQueue("compressed", 1<<20)
	frames := sys.NewQueue("frames", 1<<20)
	phase := 0
	capture := realrate.ProgramFunc(func(t *realrate.Thread, now time.Duration) realrate.Action {
		phase++
		if phase%2 == 1 {
			return realrate.Compute(400_000)
		}
		return realrate.Produce(compressed, 20_000)
	})
	stage := func(in, out *realrate.Queue, block, cpb int64) realrate.Program {
		p := 0
		return realrate.ProgramFunc(func(t *realrate.Thread, now time.Duration) realrate.Action {
			p++
			switch p % 3 {
			case 1:
				return realrate.Consume(in, block)
			case 2:
				return realrate.Compute(cpb * block)
			default:
				if out == nil {
					return realrate.Compute(1)
				}
				return realrate.Produce(out, block)
			}
		})
	}

	var threads []*realrate.Thread
	mustSpawn := func(name string, prog realrate.Program, opts ...realrate.SpawnOption) *realrate.Thread {
		th, err := sys.Spawn(name, prog, opts...)
		if err != nil {
			panic(err)
		}
		threads = append(threads, th)
		return th
	}

	mustSpawn("capture", capture, realrate.Reserve(100, 10*time.Millisecond))
	mustSpawn("decoder", stage(compressed, frames, 4096, 120),
		realrate.RealRate(0, realrate.ConsumerOf(compressed), realrate.ProducerOf(frames)))
	mustSpawn("renderer", stage(frames, nil, 4096, 15),
		realrate.RealRate(0, realrate.ConsumerOf(frames)))

	// ...a batch hog (important enough to survive a shed storm)...
	mustSpawn("batch", realrate.HogProgram(400_000), realrate.Importance(5))

	// ...and an interactive editor driven by a user.
	tty := sys.NewWaitQueue("tty")
	ephase := 0
	editor := realrate.ProgramFunc(func(t *realrate.Thread, now time.Duration) realrate.Action {
		ephase++
		if ephase%2 == 1 {
			return realrate.Wait(tty)
		}
		return realrate.Compute(1_200_000)
	})
	mustSpawn("editor", editor, realrate.Interactive())
	if *faults {
		// The fault demo's victim: a CPU-burning real-rate thread whose
		// custom progress feed wiggles inside the healthy band, so a frozen
		// signal is unambiguously a fault (not saturation, not idleness).
		mustSpawn("sensor", realrate.HogProgram(400_000),
			realrate.RealRate(10*time.Millisecond, sensorFeed{}))
	}
	uphase := 0
	user := realrate.ProgramFunc(func(t *realrate.Thread, now time.Duration) realrate.Action {
		uphase++
		if uphase%2 == 1 {
			return realrate.Sleep(80 * time.Millisecond)
		}
		tty.WakeOne()
		return realrate.Compute(1000)
	})
	mustSpawn("user", user, realrate.Reserve(10, 5*time.Millisecond))

	throttledSpawns := 0
	if *overload {
		// The storm: between 4 s and 8 s, two fresh low-importance hogs
		// every 50 ms, each living 400 ms. Demand far outruns the machine,
		// the ladder climbs, admissions bounce off the throttle rung, and
		// the shed rung kills storm hogs (never the important batch hog).
		stormN := 0
		hogUntil := func(dieAt time.Duration) realrate.Program {
			return realrate.ProgramFunc(func(t *realrate.Thread, now time.Duration) realrate.Action {
				if now >= dieAt {
					return realrate.Exit()
				}
				return realrate.Compute(300_000)
			})
		}
		sys.Every(50*time.Millisecond, func(now time.Duration) {
			if now < 4*time.Second || now >= 8*time.Second {
				return
			}
			for i := 0; i < 2; i++ {
				name := fmt.Sprintf("storm%d", stormN)
				stormN++
				th, err := sys.Spawn(name, hogUntil(now+400*time.Millisecond))
				if err != nil {
					throttledSpawns++
					continue
				}
				threads = append(threads, th)
			}
		})
	}

	last := make(map[*realrate.Thread]time.Duration)
	lastDisp := make(map[*realrate.Thread]uint64)
	lastIdle := make([]time.Duration, sys.CPUs())
	lastMig := make([]uint64, sys.CPUs())
	lastRow := make(map[*realrate.Thread]string)
	sloLine := func() string {
		rep := sys.SLO()
		if rep.Samples == 0 {
			return ""
		}
		line := fmt.Sprintf("rung %-8s slo wake→dispatch p50 %s p99 %s p999 %s attain %.1f%% of %s (%d samples, %d spawns throttled)",
			sys.Health().OverloadRung, rep.P50, rep.P99, rep.P999,
			100*rep.Attainment, rep.Target, rep.Samples, throttledSpawns)
		// The session dimension only populates when the workload reports
		// end-to-end latencies through ObserveSessionLatency.
		if s := rep.Session; s.Samples > 0 {
			line += fmt.Sprintf("\n             session e2e     p50 %s p99 %s p999 %s attain %.1f%% of %s (%d sessions)",
				s.P50, s.P99, s.P999, 100*s.Attainment, rep.SessionTarget, s.Samples)
		}
		return line
	}
	var lastNow time.Duration
	sys.Every(time.Second, func(now time.Duration) {
		fmt.Printf("\n── t=%-4s  total reserved %d/%d ───────────────────────────────────────\n",
			now, sys.TotalProportion(), realrate.PPT*sys.CPUs())
		// Control-plane line: mode, shard count, and the last interval's
		// sampled-vs-skipped split (the event plane's whole point is the
		// second number dwarfing the first on a settled workload).
		if st := sys.ShardStats(); st != nil {
			var sampled, skipped int
			for _, s := range st {
				sampled += s.LastSampled
				skipped += s.LastSkipped
			}
			fmt.Printf("ctl: %s ×%d  last interval %d sampled / %d skipped\n",
				sys.ControllerModeName(), sys.ControlShards(), sampled, skipped)
		}
		if line := sloLine(); line != "" {
			fmt.Println(line)
		}
		if sys.CPUs() > 1 {
			// Per-CPU columns come from the observer-backed CPU stats, not
			// a second scan over every thread.
			dt := now - lastNow
			fmt.Printf("%-6s %-12s %7s %8s\n", "CPU", "CURRENT", "UTIL%", "MIG/s")
			for _, cs := range sys.CPUStats() {
				curName := "(idle)"
				if cs.Current != nil {
					curName = cs.Current.Name()
				}
				util := 0.0
				if dt > 0 {
					util = 100 * (1 - float64(cs.Idle-lastIdle[cs.CPU])/float64(dt))
				}
				fmt.Printf("cpu%-3d %-12s %6.1f%% %8d\n",
					cs.CPU, curName, util, cs.Migrations-lastMig[cs.CPU])
				lastIdle[cs.CPU] = cs.Idle
				lastMig[cs.CPU] = cs.Migrations
			}
			lastNow = now
		}
		fmt.Printf("%-10s %-20s %6s %8s %9s %7s %7s %5s %6s %-9s\n",
			"THREAD", "CLASS", "ALLOC", "PERIOD", "PRESSURE", "CPU%", "DISP/s", "ACT", "STATE", "RUNG")
		unchanged := 0
		for _, th := range threads {
			share := 100 * (th.CPUTime() - last[th]).Seconds()
			last[th] = th.CPUTime()
			disp := act.dispatches[th] - lastDisp[th]
			lastDisp[th] = act.dispatches[th]
			rung := "-"
			if th.Class() == "real-rate" {
				rung = th.Degraded()
			}
			row := fmt.Sprintf("%-10s %-20s %5dp %8s %+9.3f %6.1f%% %7d %5d %6s %-9s",
				th.Name(), th.Class(), th.Allocation(),
				th.Period().Truncate(time.Millisecond), th.Pressure(), share,
				disp, act.actuations[th], th.State(), rung)
			// Incremental rendering: only moving rows print; a settled
			// thread (most of an exited storm) costs one summary line.
			if row == lastRow[th] {
				unchanged++
				continue
			}
			lastRow[th] = row
			fmt.Println(row)
		}
		if unchanged > 0 {
			fmt.Printf("… %d threads unchanged\n", unchanged)
		}
		if h := sys.Health(); h != (realrate.Health{}) {
			extra := ""
			if h.OverloadRung != "" {
				extra = fmt.Sprintf(", %d shed, %d throttled", h.Sheds, h.Throttled)
			}
			fmt.Printf("health: %d injected, %d signals rejected, %d degraded now, ladder %d down/%d up, actuations %d dropped/%d delayed%s\n",
				h.FaultsInjected, h.SignalsRejected, h.JobsDegraded,
				h.Degradations, h.Recoveries, h.ActuationsDropped, h.ActuationsDelayed, extra)
		}
	})
	sys.Run(*dur)

	st := sys.Stats()
	fmt.Printf("\n%d controller steps, %d actuations, %d dispatches, overhead %v\n",
		st.ControllerSteps, st.Actuations, st.Dispatches, st.SchedOverhead.Truncate(time.Microsecond))
}
