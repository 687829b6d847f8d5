package experiments_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/rbs"
	"repro/internal/sim"
)

// TestStormScaleRuns drives the ContextSwitchStorm family at increasing
// thread counts through the parallel sweep runner: the machine must stay
// live (dispatching) at every scale, and the dispatch count must stay
// bounded by the tick rate — dispatches are per-tick events, so a
// thousandfold thread increase must not inflate them more than the
// storm's own wake churn does (the old linear-scan core got *slower* per
// dispatch; the indexed core must not change dispatch semantics at all).
func TestStormScaleRuns(t *testing.T) {
	counts := []int{10, 100, 1000}
	res := experiments.Sweep(len(counts), func(i int) experiments.StormResult {
		return experiments.RunContextSwitchStorm(experiments.StormConfig{
			Threads: counts[i], RunFor: 200 * sim.Millisecond,
		})
	})
	for i, r := range res {
		if r.Threads != counts[i] {
			t.Fatalf("point %d ran %d threads, want %d", i, r.Threads, counts[i])
		}
		if r.Dispatches == 0 {
			t.Fatalf("n=%d: machine never dispatched", r.Threads)
		}
		// 200 ms at a 1 ms tick with segment-end and wake dispatch points:
		// far below 10 per tick at any n.
		if r.Dispatches > 2000 {
			t.Fatalf("n=%d: %d dispatches in 200ms — dispatch storm out of bounds", r.Threads, r.Dispatches)
		}
	}
}

// TestStormOversubscribedCountsMisses sanity-checks the stress shape: at
// 1000 threads the 1 ms minimum allocation oversubscribes the machine, so
// the dispatcher must be reporting deadline misses (the controller's
// overload signal) rather than silently dropping periods.
func TestStormOversubscribedCountsMisses(t *testing.T) {
	res := experiments.RunContextSwitchStorm(experiments.StormConfig{
		Threads: 1000, RunFor: 200 * sim.Millisecond,
	})
	if res.Missed == 0 {
		t.Fatal("oversubscribed storm recorded no missed deadlines")
	}
	if res.ThreadTime == 0 {
		t.Fatal("storm delivered no CPU to its threads")
	}
}

// TestStormPinnedEDF pins EDF dispatch on a multiprocessor, which no
// golden runs: with several CPUs the ready heap's array order is what
// work-pull stealing scans, so a change to how the heap is laid out or
// sifted shows up here as a different migration count or drain time. The
// values were recorded from the indexed-heap dispatcher before its
// structures were re-keyed on the scheduling state.
func TestStormPinnedEDF(t *testing.T) {
	got := experiments.RunContextSwitchStorm(experiments.StormConfig{
		Threads: 1000, CPUs: 4, Work: 4_000_000, Discipline: rbs.EDF,
	})
	want := experiments.StormResult{
		Threads:    1000,
		CPUs:       4,
		Dispatches: 15944,
		Switches:   13240,
		Wakeups:    13115,
		Migrations: 17,
		ThreadTime: 10 * sim.Second,
		Overhead:   95_985_000,
		Idle:       1_904_015_000,
		Missed:     62657,
		SimElapsed: 2_800_134_750,
		Completed:  1000,
	}
	if got != want {
		t.Fatalf("EDF storm on 4 CPUs drifted:\n got %+v\nwant %+v", got, want)
	}
}

// TestStormPinnedRMS pins the whole RMS run-to-completion storm, the
// rrbench storm workload's machine at 10k threads on 4 CPUs. No golden
// prints the RMS storm's missed-deadline count, and under RMS a ready
// reservation rolls lazily, so a roll caught up at the wrong instant or
// dropped shows up here as a drifted Missed count even where every
// dispatch decision is unchanged. The values were recorded from the
// dispatcher that filed every queued reservation in the boundary wheel.
func TestStormPinnedRMS(t *testing.T) {
	cases := []experiments.StormResult{
		{
			Threads: 1000, CPUs: 1, Dispatches: 14224, Switches: 13767,
			Wakeups: 13754, Migrations: 0, ThreadTime: 10 * sim.Second,
			Overhead: 96_424_750, Idle: 153_575_250, Missed: 156_173,
			SimElapsed: 10_200_255_500, Completed: 1000,
		},
		{
			Threads: 1000, CPUs: 4, Dispatches: 16936, Switches: 13252,
			Wakeups: 13132, Migrations: 9, ThreadTime: 10 * sim.Second,
			Overhead: 95_946_000, Idle: 2_904_054_000, Missed: 31_400,
			SimElapsed: 3_200_000_000, Completed: 1000,
		},
		{
			Threads: 10000, CPUs: 4, Dispatches: 141764, Switches: 137720,
			Wakeups: 137628, Migrations: 6, ThreadTime: 99_999_984_000,
			Overhead: 964_449_000, Idle: 1_035_567_000, Missed: 4_110_584,
			SimElapsed: 25_300_886_250, Completed: 10000,
		},
	}
	for _, want := range cases {
		got := experiments.RunContextSwitchStorm(experiments.StormConfig{
			Threads: want.Threads, CPUs: want.CPUs, Work: 4_000_000,
		})
		if got != want {
			t.Errorf("RMS storm %d×%d drifted:\n got %+v\nwant %+v", want.Threads, want.CPUs, got, want)
		}
	}
}

// TestFig5ExtendedTo1000 pushes the Figure 5 sweep past the paper's 40
// processes into the thousands-of-jobs regime: the controller must survive
// (the legacy floor handling panicked past ~170 adaptive jobs) and its
// measured overhead must stay a valid CPU fraction, saturating at its own
// reservation rather than growing without bound.
func TestFig5ExtendedTo1000(t *testing.T) {
	res := experiments.RunFig5(experiments.Fig5Config{
		MaxProcesses: 1000, Step: 500, RunFor: 500 * sim.Millisecond,
	})
	if len(res.Points) != 3 {
		t.Fatalf("points = %d, want 3 (0, 500, 1000)", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Overhead < 0 || p.Overhead > 1 {
			t.Fatalf("n=%d: controller CPU fraction %v out of [0,1]", p.Processes, p.Overhead)
		}
	}
	// More controlled processes must cost more controller CPU.
	if res.Points[2].Overhead <= res.Points[0].Overhead {
		t.Fatalf("overhead not increasing: %+v", res.Points)
	}
}
