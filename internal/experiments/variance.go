package experiments

import (
	"fmt"
	"io"
	"time"

	realrate "repro"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/progress"
	"repro/internal/sim"
	"repro/internal/workload"
)

// VarianceRow is one scheduler's result in the allocation-variance
// comparison.
type VarianceRow struct {
	Scheduler string
	// MeanShare is the target thread's mean CPU share per window.
	MeanShare float64
	// StdShare is the standard deviation of the per-window share — the
	// "variance in the amount of cycles allocated" the abstract claims
	// proportion/period scheduling reduces.
	StdShare float64
	// UnderFrac is the fraction of windows in which the thread received
	// less than 80% of its requirement — windows in which a real-rate
	// application would have missed its rate.
	UnderFrac float64
}

// VarianceResult compares the cycle-delivery variance of the feedback
// reservation scheduler against the classical alternatives for a thread
// with a steady real-rate requirement.
type VarianceResult struct {
	// NeedShare is the thread's true requirement as a fraction of the CPU.
	NeedShare float64
	Window    sim.Duration
	Rows      []VarianceRow
}

// RunVariance measures a steady 40%-of-CPU consumer fed by a paced
// producer, competing with two CPU hogs, under three schedulers:
//
//   - the real-rate stack (reservation assigned by the feedback controller),
//   - Linux 2.0 goodness (the consumer is just another SCHED_OTHER thread —
//     fair share with two hogs is ≈33%, so priorities simply cannot express
//     the 40% requirement: "lack of fine-grain allocation"),
//   - lottery scheduling with a-priori correct tickets (the lottery can
//     express the proportion, but delivers it with high short-window
//     variance; and someone had to compute the tickets — the controller
//     finds the proportion by itself).
//
// The per-window CPU share of the consumer is the figure of merit.
func RunVariance(duration sim.Duration) VarianceResult {
	if duration == 0 {
		duration = 30 * sim.Second
	}
	const window = 100 * sim.Millisecond
	res := VarianceResult{NeedShare: 0.4, Window: window}
	// The four schedulers run on four independent machines, in parallel.
	res.Rows = Sweep(4, func(i int) VarianceRow {
		switch i {
		case 0:
			return varianceRealRate(duration, window)
		case 1:
			return varianceLinux(duration, window)
		case 2:
			return varianceLottery(duration, window)
		default:
			return varianceStride(duration, window)
		}
	})
	return res
}

// varianceWorkload spawns the common workload on a machine: reserved-rate
// producer (by construction under baselines: a self-pacing producer),
// consumer, two hogs. Returns the consumer thread and its queue.
func varianceWorkload(k *kernel.Kernel) (*kernel.Thread, *kernel.Thread, *kernel.Queue) {
	q := k.NewQueue("pipe", 1<<20)
	// Self-pacing producer: emits 20 kB every 10 ms on an absolute
	// schedule (tick-quantized wakeups cannot drift it), so the data rate
	// is exactly 2 MB/s under every scheduler. The consumer needs 80
	// cycles/byte × 2 MB/s = 40% of the CPU.
	phase := 0
	var nextAt sim.Time
	pt := k.Spawn("producer", kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		phase++
		if phase%2 == 1 {
			nextAt = nextAt.Add(10 * sim.Millisecond)
			return kernel.SleepUntil(nextAt)
		}
		return kernel.Produce(q, 20_000)
	}))
	cons := &workload.Consumer{Queue: q, BlockBytes: 4096, CyclesPerByte: 80}
	ct := k.Spawn("consumer", cons)
	k.Spawn("hog1", &workload.Hog{Burst: 400_000})
	k.Spawn("hog2", &workload.Hog{Burst: 400_000})
	return pt, ct, q
}

// shareSeries samples ct's CPU share per window until the horizon.
func shareSeries(eng *sim.Engine, ct *kernel.Thread, window sim.Duration, horizon sim.Time) *metrics.Series {
	s := metrics.NewSeries("share")
	var last sim.Duration
	metrics.Sample(eng, window, horizon, func(now sim.Time) {
		cur := ct.CPUTime()
		s.Add(now, (cur-last).Seconds()/window.Seconds())
		last = cur
	})
	return s
}

func varianceRow(name string, s *metrics.Series, need float64) VarianceRow {
	// Skip the first second of warm-up.
	tail := s.Slice(sim.Time(sim.Second), sim.Time(int64(^uint64(0)>>1)))
	vals := tail.Values()
	under := 0
	for _, v := range vals {
		if v < 0.8*need {
			under++
		}
	}
	row := VarianceRow{Scheduler: name, MeanShare: metrics.Mean(vals), StdShare: metrics.StdDev(vals)}
	if len(vals) > 0 {
		row.UnderFrac = float64(under) / float64(len(vals))
	}
	return row
}

func varianceRealRate(duration, window sim.Duration) VarianceRow {
	r := newRig(nil, nil)
	pt, ct, q := varianceWorkload(r.kern)
	if _, err := r.ctl.AddRealTime(pt, 20, 5*sim.Millisecond); err != nil {
		panic(err)
	}
	r.reg.RegisterQueue(pt, q, progress.Producer)
	r.reg.RegisterQueue(ct, q, progress.Consumer)
	r.ctl.AddRealRate(ct, 10*sim.Millisecond)
	for _, t := range r.kern.Threads() {
		if t.Name() == "hog1" || t.Name() == "hog2" {
			r.ctl.AddMiscellaneous(t)
		}
	}
	s := shareSeries(r.eng, ct, window, sim.Time(duration))
	r.start()
	r.eng.RunFor(duration)
	r.kern.Stop()
	return varianceRow("real-rate (this paper)", s, 0.4)
}

func varianceLinux(duration, window sim.Duration) VarianceRow {
	eng := sim.NewEngine()
	lp := realrate.Linux()
	k := kernel.New(eng, kernel.DefaultConfig(), lp.Linux)
	_, ct, _ := varianceWorkload(k)
	s := shareSeries(eng, ct, window, sim.Time(duration))
	k.Start()
	eng.RunFor(duration)
	k.Stop()
	return varianceRow("linux-goodness", s, 0.4)
}

func varianceLottery(duration, window sim.Duration) VarianceRow {
	eng := sim.NewEngine()
	lot := realrate.Lottery(10*time.Millisecond, 12345)
	k := kernel.New(eng, kernel.DefaultConfig(), lot.Lottery)
	pt, ct, _ := varianceWorkload(k)
	// A-priori correct tickets: consumer 40% of the compute tickets, hogs
	// the rest. The producer is a device driver: overwhelming tickets so a
	// wakeup translates to a prompt win (lottery has no wake preemption).
	lot.SetTickets(ct, 400)
	lot.SetTickets(pt, 20_000)
	for _, t := range k.Threads() {
		if t.Name() == "hog1" || t.Name() == "hog2" {
			lot.SetTickets(t, 300)
		}
	}
	s := shareSeries(eng, ct, window, sim.Time(duration))
	k.Start()
	eng.RunFor(duration)
	k.Stop()
	return varianceRow("lottery (a-priori tickets)", s, 0.4)
}

func varianceStride(duration, window sim.Duration) VarianceRow {
	eng := sim.NewEngine()
	str := realrate.Stride(10 * time.Millisecond)
	k := kernel.New(eng, kernel.DefaultConfig(), str.Stride)
	pt, ct, _ := varianceWorkload(k)
	// Same a-priori tickets as the lottery: stride is its deterministic
	// twin, so this isolates randomness as the variance source.
	str.SetTickets(ct, 400)
	str.SetTickets(pt, 20_000)
	for _, t := range k.Threads() {
		if t.Name() == "hog1" || t.Name() == "hog2" {
			str.SetTickets(t, 300)
		}
	}
	s := shareSeries(eng, ct, window, sim.Time(duration))
	k.Start()
	eng.RunFor(duration)
	k.Stop()
	return varianceRow("stride (a-priori tickets)", s, 0.4)
}

// Print writes the comparison table.
func (res VarianceResult) Print(w io.Writer) {
	section(w, "Allocation variance (abstract's claim: lower variance than priority schemes)")
	fmt.Fprintf(w, "consumer needs %.0f%% of the CPU; per-%v window CPU share:\n",
		res.NeedShare*100, res.Window)
	fmt.Fprintf(w, "%-28s %-12s %-12s %s\n", "scheduler", "mean", "std", "windows <80% of need")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-28s %-12.3f %-12.3f %.1f%%\n", r.Scheduler, r.MeanShare, r.StdShare, r.UnderFrac*100)
	}
}
