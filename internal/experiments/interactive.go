package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	realrate "repro"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// InteractiveRow is one scheduler's interactive-latency result.
type InteractiveRow struct {
	Scheduler string
	Handled   int64
	// P50 and P99 are event-to-completion latencies (user action until
	// the editor finishes its burst).
	P50, P99 sim.Duration
}

// InteractiveResult reproduces §4.1's claim: "we currently schedule both
// the controller and the X server, and see no noticeable delays in
// interactive response time even when the CPU is fully utilized."
type InteractiveResult struct {
	Duration sim.Duration
	Rows     []InteractiveRow
}

// interactiveWorkload spawns the editor, its event source, and three hogs.
func interactiveWorkload(k *kernel.Kernel) (*workload.InteractiveJob, *workload.EventSource, *kernel.Thread, *kernel.Thread, []*kernel.Thread) {
	tty := kernel.NewWaitQueue("tty")
	ij := &workload.InteractiveJob{TTY: tty, Burst: 1_200_000} // 3 ms per event
	it := k.Spawn("editor", ij)
	src := &workload.EventSource{Kernel: k, Target: ij, Interval: 50 * sim.Millisecond}
	st := k.Spawn("user", src)
	var hogs []*kernel.Thread
	for i := 0; i < 3; i++ {
		hogs = append(hogs, k.Spawn("hog", &workload.Hog{Burst: 400_000}))
	}
	return ij, src, it, st, hogs
}

func interactiveRow(name string, ij *workload.InteractiveJob) InteractiveRow {
	lats := ij.Latencies()
	row := InteractiveRow{Scheduler: name, Handled: ij.Handled()}
	if len(lats) > 0 {
		secs := make([]float64, len(lats))
		for i, l := range lats {
			secs[i] = l.Seconds()
		}
		sort.Float64s(secs)
		row.P50 = sim.Duration(metrics.PercentileSorted(secs, 50) * float64(sim.Second))
		row.P99 = sim.Duration(metrics.PercentileSorted(secs, 99) * float64(sim.Second))
	}
	return row
}

// RunInteractiveLatency measures editor response under three schedulers
// with the CPU fully utilized by hogs.
func RunInteractiveLatency(duration sim.Duration) InteractiveResult {
	if duration == 0 {
		duration = 20 * sim.Second
	}
	res := InteractiveResult{Duration: duration}

	// Real-rate stack: editor is an interactive-class job; the user is an
	// input device with a small reservation; hogs are miscellaneous.
	{
		r := newRig(nil, nil)
		ij, _, it, st, hogs := interactiveWorkload(r.kern)
		r.ctl.AddInteractive(it)
		if _, err := r.ctl.AddRealTime(st, 10, 5*sim.Millisecond); err != nil {
			panic(err)
		}
		for _, h := range hogs {
			r.ctl.AddMiscellaneous(h)
		}
		r.start()
		r.eng.RunFor(duration)
		r.kern.Stop()
		res.Rows = append(res.Rows, interactiveRow("real-rate (this paper)", ij))
	}

	// Linux goodness: everything SCHED_OTHER except the input interrupt.
	{
		eng := sim.NewEngine()
		lp := realrate.Linux()
		k := kernel.New(eng, kernel.DefaultConfig(), lp.Linux)
		ij, _, _, st, _ := interactiveWorkload(k)
		lp.SetRealtime(st, 50) // input delivery is interrupt-driven
		k.Start()
		eng.RunFor(duration)
		k.Stop()
		res.Rows = append(res.Rows, interactiveRow("linux-goodness", ij))
	}

	// Lottery: editor holds typical tickets, the input device many.
	{
		eng := sim.NewEngine()
		lot := realrate.Lottery(10*time.Millisecond, 777)
		k := kernel.New(eng, kernel.DefaultConfig(), lot.Lottery)
		ij, _, it, st, _ := interactiveWorkload(k)
		lot.SetTickets(st, 20_000)
		lot.SetTickets(it, 100)
		k.Start()
		eng.RunFor(duration)
		k.Stop()
		res.Rows = append(res.Rows, interactiveRow("lottery", ij))
	}
	return res
}

// Print writes the comparison table.
func (res InteractiveResult) Print(w io.Writer) {
	section(w, "Interactive response under full CPU load (§4.1)")
	events := int64(res.Duration / sim.Duration(50*sim.Millisecond))
	fmt.Fprintf(w, "editor events every 50 ms (%d total), 3 ms burst each, 3 competing hogs\n", events)
	fmt.Fprintf(w, "%-26s %-9s %-12s %s\n", "scheduler", "handled", "p50 latency", "p99 latency")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-26s %-9d %-12v %v\n", r.Scheduler, r.Handled, r.P50, r.P99)
	}
	fmt.Fprintln(w, "paper: \"no noticeable delays in interactive response time even when")
	fmt.Fprintln(w, "       the CPU is fully utilized\" — human-noticeable ≈ 100 ms.")
}
