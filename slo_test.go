package realrate_test

import (
	"fmt"
	"testing"
	"time"

	realrate "repro"
)

// TestSLOAccounting pins the public SLO surface: arming Config.Overload
// turns the wake→dispatch tracker on, the report carries the configured
// target, its percentiles are ordered and attainment is a fraction.
func TestSLOAccounting(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{
		Overload: &realrate.OverloadConfig{LatencySLO: 10 * time.Millisecond},
	})
	if _, err := sys.Spawn("rt", realrate.HogProgram(200_000),
		realrate.Reserve(300, 10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn("bg", realrate.HogProgram(200_000)); err != nil {
		t.Fatal(err)
	}
	sys.Run(500 * time.Millisecond)

	rep := sys.SLO()
	if rep.Samples == 0 {
		t.Fatal("no wake→dispatch samples after a 500ms run")
	}
	if rep.Target != 10*time.Millisecond {
		t.Fatalf("Target = %v, want the configured 10ms", rep.Target)
	}
	if rep.P50 > rep.P99 || rep.P99 > rep.P999 {
		t.Fatalf("percentiles out of order: p50 %v p99 %v p999 %v", rep.P50, rep.P99, rep.P999)
	}
	if rep.Attainment < 0 || rep.Attainment > 1 {
		t.Fatalf("Attainment = %v, want a fraction", rep.Attainment)
	}
}

// TestSLODisabledWithoutGovernorConfig: with Overload nil the tracker is
// off — zero report, zero hot-path cost, byte-identical behavior.
func TestSLODisabledWithoutGovernorConfig(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	if _, err := sys.Spawn("bg", realrate.HogProgram(200_000)); err != nil {
		t.Fatal(err)
	}
	sys.Run(100 * time.Millisecond)
	rep := sys.SLO()
	if rep.Samples != 0 || rep.Target != 0 || rep.Sessions != nil {
		t.Fatalf("SLO report with no governor config = %+v, want zero", rep)
	}
}

// waitForever computes one burst (so the thread's spawn edge closes into
// a real sample) and then parks on w; every wake parks it again.
func waitForever(w *realrate.WaitQueue) realrate.Program {
	first := true
	return realrate.ProgramFunc(func(t *realrate.Thread, now time.Duration) realrate.Action {
		if first {
			first = false
			return realrate.Compute(50_000)
		}
		return realrate.Wait(w)
	})
}

// TestOpenWakeEdgeAtRunEndExcluded pins the open-edge rule at the
// measurement boundary: a thread woken but never dispatched before the
// simulation stops has an open wake→dispatch edge, and an open edge is
// excluded from the SLO accounting — not counted as met (the latency is
// unknown) and not counted as missed (the thread never got to run). A
// tracker that closed open edges at the run horizon would award every
// straggler a phantom sample.
func TestOpenWakeEdgeAtRunEndExcluded(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{
		Overload: &realrate.OverloadConfig{LatencySLO: 10 * time.Millisecond},
	})
	wq := sys.NewWaitQueue("tty")
	if _, err := sys.Spawn("waiter", waitForever(wq)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn("hog", realrate.HogProgram(200_000)); err != nil {
		t.Fatal(err)
	}
	sys.Run(100 * time.Millisecond)

	before := sys.SLO()
	if before.Samples == 0 {
		t.Fatal("no samples in 100ms: setup broken")
	}
	// Wake at the run horizon: the edge opens, the simulation never runs
	// again, so no dispatch can close it.
	if !wq.WakeOne() {
		t.Fatal("no waiter parked on the queue")
	}
	after := sys.SLO()
	if after.Samples != before.Samples {
		t.Fatalf("open wake edge at run end counted as a sample: %d -> %d samples",
			before.Samples, after.Samples)
	}
	if after.Attainment != before.Attainment {
		t.Fatalf("open wake edge moved attainment: %v -> %v", before.Attainment, after.Attainment)
	}
}

// TestKillMidWaitClosesEdgeOnce pins the other open-edge rule: a thread
// killed between its wake and its dispatch — exactly what the governor's
// shed rung does to a parked session stage — drops its open edge with the
// handle, once. Twin runs kill the waiter at the same instant, one right
// after waking it (the edge is open) and one while it is still parked (no
// edge). The severed edge must yield no sample — the thread never reached
// a CPU, so there is no latency to measure — and must not disturb later
// samples, so both runs end with the same sample count and attainment. A
// second Kill must be a quiet no-op rather than a double-close.
func TestKillMidWaitClosesEdgeOnce(t *testing.T) {
	run := func(wake bool) realrate.SLOReport {
		sys := realrate.NewSystem(realrate.Config{
			Overload: &realrate.OverloadConfig{LatencySLO: 10 * time.Millisecond},
		})
		wq := sys.NewWaitQueue("tty")
		waiter, err := sys.Spawn("waiter", waitForever(wq))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Spawn("hog", realrate.HogProgram(200_000)); err != nil {
			t.Fatal(err)
		}
		sys.After(50*time.Millisecond, func(now time.Duration) {
			// Wake and kill inside one callback: the scheduler cannot run
			// between the two, so the kill lands while the wake edge is open.
			if wake && !wq.WakeOne() {
				t.Error("no waiter parked on the queue")
			}
			waiter.Kill()
		})
		sys.Run(200 * time.Millisecond)
		if waiter.State() != "exited" {
			t.Fatalf("waiter state = %s, want exited", waiter.State())
		}
		rep := sys.SLO()
		waiter.Kill()
		if again := sys.SLO(); again.Samples != rep.Samples || again.Attainment != rep.Attainment {
			t.Fatalf("second kill changed the accounting: %d samples at %v -> %d at %v",
				rep.Samples, rep.Attainment, again.Samples, again.Attainment)
		}
		return rep
	}
	woken, parked := run(true), run(false)
	if parked.Samples == 0 {
		t.Fatal("no samples in a 200ms run: setup broken")
	}
	if woken.Samples != parked.Samples {
		t.Fatalf("kill mid-wait recorded %d samples, a kill while parked %d", woken.Samples, parked.Samples)
	}
	if woken.Attainment != parked.Attainment {
		t.Fatalf("kill mid-wait attainment %v, a kill while parked %v", woken.Attainment, parked.Attainment)
	}
}

// TestGovernorIdleZeroThroughputCost proves the "enabled but idle"
// guarantee: arming the governor on a machine it never trips must not
// cost the workload any throughput. The same hog storm runs with the
// governor off and idle; dispatches, per-thread CPU time, and total
// reserved proportion must agree within 1% (they are in fact identical —
// the governor only reads controller state, and the SLO tap lives on the
// observer seam outside simulated time).
func TestGovernorIdleZeroThroughputCost(t *testing.T) {
	run := func(overload *realrate.OverloadConfig) (uint64, time.Duration) {
		sys := realrate.NewSystem(realrate.Config{Overload: overload})
		var hogs []*realrate.Thread
		for j := 0; j < 50; j++ {
			th, err := sys.Spawn(fmt.Sprintf("hog%d", j), realrate.HogProgram(400_000))
			if err != nil {
				t.Fatal(err)
			}
			hogs = append(hogs, th)
		}
		sys.Run(2 * time.Second)
		if overload != nil && sys.Health().OverloadRung != "normal" {
			t.Fatalf("governor not idle: rung %s", sys.Health().OverloadRung)
		}
		var cpu time.Duration
		for _, th := range hogs {
			cpu += th.CPUTime()
		}
		return sys.Stats().Dispatches, cpu
	}
	offDisp, offCPU := run(nil)
	idleDisp, idleCPU := run(&realrate.OverloadConfig{GapFactor: 1e12})
	if offDisp != idleDisp {
		overhead := 100 * (1 - float64(idleDisp)/float64(offDisp))
		if overhead > 1 || overhead < -1 {
			t.Fatalf("idle governor changed storm throughput: %d -> %d dispatches (%.2f%%)",
				offDisp, idleDisp, overhead)
		}
	}
	if offCPU != idleCPU {
		t.Fatalf("idle governor changed workload CPU time: %v -> %v", offCPU, idleCPU)
	}
}
