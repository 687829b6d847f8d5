package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/pid"
	"repro/internal/progress"
	"repro/internal/rbs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// GainAblationResult compares pressure-filter configurations (P, PI, PID)
// on the Figure 6 pulse pipeline — the design choice §3.3 justifies by
// citing PID control's "error reduction together with acceptable stability
// and damping".
type GainAblationResult struct {
	Name          string
	ResponseTime  sim.Duration
	Settled       bool
	FillStd       float64
	TrackingError float64
}

// RunGainAblation runs the pulse pipeline under the given PID gains.
func RunGainAblation(name string, gains pid.Config, duration sim.Duration) GainAblationResult {
	cfg := PipelineConfig{Duration: duration}
	cfg.Ctl = func(cc *core.Config) {
		def := core.DefaultConfig()
		g := gains
		// Preserve the conditioning (clamps, filters) of the default
		// configuration; the ablation varies only the gain structure.
		g.IntegralLo = def.PID.IntegralLo
		g.IntegralHi = def.PID.IntegralHi
		g.OutLo = def.PID.OutLo
		g.OutHi = def.PID.OutHi
		g.InputTau = def.PID.InputTau
		g.DerivativeTau = def.PID.DerivativeTau
		cc.PID = g
	}
	res := RunPipeline(cfg)
	return GainAblationResult{
		Name:          name,
		ResponseTime:  res.ResponseTime,
		Settled:       res.Settled,
		FillStd:       res.FillStd,
		TrackingError: res.TrackingError,
	}
}

// ReclaimAblationResult measures Figure 4's P−C reclamation path on a
// bottlenecked consumer: its input queue is pinned full (pressure
// saturated) but a slow downstream device, not the CPU, limits it. With
// reclamation the controller takes the unused allocation back and a
// competing job gets it; without, the allocation stays pinned high.
type ReclaimAblationResult struct {
	ReclaimOn bool
	// ConsumerAlloc is the consumer's mean allocation in the steady tail.
	ConsumerAlloc float64
	// ConsumerUse is the consumer's actual CPU share (ppt) in the tail.
	ConsumerUse float64
	// HogShare is the competing hog's CPU share over the tail.
	HogShare float64
}

// RunReclaimAblation runs the bottleneck scenario with reclamation enabled
// or effectively disabled.
func RunReclaimAblation(reclaimOn bool, duration sim.Duration) ReclaimAblationResult {
	if duration == 0 {
		duration = 20 * sim.Second
	}
	r := newRig(nil, func(cc *core.Config) {
		if !reclaimOn {
			// A reclaim threshold of (effectively) zero usage never
			// triggers: the P−C path is off.
			cc.ReclaimFraction = 1e-9
		}
	})
	q := r.kern.NewQueue("pipe", 1<<20)
	prod := &workload.Producer{Queue: q, CyclesPerBlock: 400_000, Rate: workload.ConstantRate(50)}
	pt := r.kern.Spawn("producer", prod)
	if _, err := r.ctl.AddRealTime(pt, 100, 10*sim.Millisecond); err != nil {
		panic(err)
	}
	// Bottlenecked consumer: tiny compute per block, then a 5 ms wait on a
	// slow device. The queue pins full; more CPU cannot help.
	phase := 0
	ct := r.kern.Spawn("consumer", kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		phase++
		switch phase % 3 {
		case 1:
			return kernel.Consume(q, 4096)
		case 2:
			return kernel.Compute(40_000)
		default:
			return kernel.Sleep(5 * sim.Millisecond)
		}
	}))
	r.reg.RegisterQueue(pt, q, progress.Producer)
	r.reg.RegisterQueue(ct, q, progress.Consumer)
	cj := r.ctl.AddRealRate(ct, 10*sim.Millisecond)

	hog := r.kern.Spawn("hog", &workload.Hog{Burst: 400_000})
	r.ctl.AddMiscellaneous(hog)

	var allocSum float64
	var samples int
	tailFrom := sim.Time(duration / 2)
	var hogCPUAtTail, consCPUAtTail sim.Duration
	r.ctl.Subscribe(core.SinkFunc(func(ev core.Event) {
		if now := ev.Time; now >= tailFrom {
			if samples == 0 {
				hogCPUAtTail = hog.CPUTime()
				consCPUAtTail = ct.CPUTime()
			}
			allocSum += float64(cj.Allocated())
			samples++
		}
	}), core.EventStep)
	r.start()
	r.eng.RunFor(duration)
	r.kern.Stop()

	tail := (duration - sim.Duration(tailFrom)).Seconds()
	res := ReclaimAblationResult{ReclaimOn: reclaimOn}
	if samples > 0 {
		res.ConsumerAlloc = allocSum / float64(samples)
	}
	res.HogShare = (hog.CPUTime() - hogCPUAtTail).Seconds() / tail
	res.ConsumerUse = (ct.CPUTime() - consCPUAtTail).Seconds() / tail * 1000
	return res
}

// QuantizationAblationResult measures the §4.3 quantization discussion: a
// job whose true need is far below one dispatch tick per period is
// over-delivered by the tick-granularity dispatcher; precise accounting
// (or a longer period) removes the overrun.
type QuantizationAblationResult struct {
	Precise bool
	// NeedPPT is the thread's true requirement.
	NeedPPT float64
	// GotShare is the share actually delivered (ppt).
	GotShare float64
	// Overdelivery is GotShare/NeedPPT.
	Overdelivery float64
}

// RunQuantizationAblation gives a tiny real-time reservation (8 ppt over
// 10 ms: a 0.08 ms budget, well under the 1 ms tick) to a greedy thread and
// measures what the dispatcher actually delivers.
func RunQuantizationAblation(precise bool, duration sim.Duration) QuantizationAblationResult {
	if duration == 0 {
		duration = 10 * sim.Second
	}
	eng := sim.NewEngine()
	policy := rbs.New()
	policy.PreciseAccounting = precise
	kern := kernel.New(eng, kernel.DefaultConfig(), policy)
	th := kern.Spawn("tiny", &workload.Hog{Burst: 400_000})
	if err := policy.SetReservation(th, rbs.Reservation{Proportion: 8, Period: 10 * sim.Millisecond}); err != nil {
		panic(err)
	}
	// A competing reserved thread so the tiny job cannot soak idle time.
	other := kern.Spawn("bulk", &workload.Hog{Burst: 400_000})
	if err := policy.SetReservation(other, rbs.Reservation{Proportion: 800, Period: 10 * sim.Millisecond}); err != nil {
		panic(err)
	}
	kern.Start()
	eng.RunFor(duration)
	kern.Stop()

	got := th.CPUTime().Seconds() / duration.Seconds() * 1000
	return QuantizationAblationResult{
		Precise:      precise,
		NeedPPT:      8,
		GotShare:     got,
		Overdelivery: got / 8,
	}
}

// DisciplineAblationResult compares the RMS goodness dispatcher with EDF on
// the Liu-Layland counterexample: two CPU-bound reservations with
// non-harmonic periods at 95% utilization (500/10ms + 450/15ms).
type DisciplineAblationResult struct {
	Discipline      string
	MissedDeadlines uint64
}

// RunDisciplineAblation runs the 95%-utilization non-harmonic task set
// under the given dispatch discipline with precise accounting.
func RunDisciplineAblation(d rbs.Discipline, duration sim.Duration) DisciplineAblationResult {
	if duration == 0 {
		duration = 10 * sim.Second
	}
	eng := sim.NewEngine()
	p := rbs.New()
	p.Discipline = d
	p.PreciseAccounting = true
	kern := kernel.New(eng, kernel.DefaultConfig(), p)
	t1 := kern.Spawn("t1", &workload.Hog{Burst: 10_000_000})
	t2 := kern.Spawn("t2", &workload.Hog{Burst: 10_000_000})
	if err := p.SetReservation(t1, rbs.Reservation{Proportion: 500, Period: 10 * sim.Millisecond}); err != nil {
		panic(err)
	}
	if err := p.SetReservation(t2, rbs.Reservation{Proportion: 450, Period: 15 * sim.Millisecond}); err != nil {
		panic(err)
	}
	kern.Start()
	eng.RunFor(duration)
	kern.Stop()
	name := "RMS"
	if d == rbs.EDF {
		name = "EDF"
	}
	return DisciplineAblationResult{Discipline: name, MissedDeadlines: p.MissedDeadlines()}
}

// PrintAblations runs and prints the full ablation set. The nine trials are
// independent machines, so they run as one parallel sweep; printing happens
// afterwards, in the fixed report order.
func PrintAblations(w io.Writer, duration sim.Duration) {
	gains := []struct {
		name string
		cfg  pid.Config
	}{
		{"P-only", pid.Config{Kp: 1.0}},
		{"PI", pid.Config{Kp: 1.0, Ki: 4.0}},
		{"PID", pid.Config{Kp: 1.0, Ki: 4.0, Kd: 0.05}},
	}
	var gainRes [3]GainAblationResult
	var reclaimRes [2]ReclaimAblationResult
	var discRes [2]DisciplineAblationResult
	var quantRes [2]QuantizationAblationResult
	SweepTasks(
		func() { gainRes[0] = RunGainAblation(gains[0].name, gains[0].cfg, duration) },
		func() { gainRes[1] = RunGainAblation(gains[1].name, gains[1].cfg, duration) },
		func() { gainRes[2] = RunGainAblation(gains[2].name, gains[2].cfg, duration) },
		func() { reclaimRes[0] = RunReclaimAblation(true, duration/2) },
		func() { reclaimRes[1] = RunReclaimAblation(false, duration/2) },
		func() { discRes[0] = RunDisciplineAblation(rbs.RMS, duration/4) },
		func() { discRes[1] = RunDisciplineAblation(rbs.EDF, duration/4) },
		func() { quantRes[0] = RunQuantizationAblation(false, duration/2) },
		func() { quantRes[1] = RunQuantizationAblation(true, duration/2) },
	)

	section(w, "Ablation: pressure filter (P vs PI vs PID)")
	fmt.Fprintf(w, "%-8s %-12s %-10s %s\n", "filter", "response", "fill-std", "tracking-err")
	for _, res := range gainRes {
		fmt.Fprintf(w, "%-8s %-12v %-10.3f %.1f%%\n", res.Name, res.ResponseTime, res.FillStd, res.TrackingError*100)
	}

	section(w, "Ablation: Figure 4 reclamation (P−C) on a bottlenecked consumer")
	fmt.Fprintf(w, "%-10s %-16s %-16s %s\n", "reclaim", "consumer-alloc", "consumer-use", "hog-share")
	for _, res := range reclaimRes {
		fmt.Fprintf(w, "%-10v %-16.0f %-16.1f %.3f\n", res.ReclaimOn, res.ConsumerAlloc, res.ConsumerUse, res.HogShare)
	}

	section(w, "Ablation: dispatch discipline (RMS goodness vs EDF, 95% non-harmonic set)")
	fmt.Fprintf(w, "%-12s %s\n", "discipline", "missed deadlines")
	for _, res := range discRes {
		fmt.Fprintf(w, "%-12s %d\n", res.Discipline, res.MissedDeadlines)
	}

	section(w, "Ablation: dispatch quantization (§4.3)")
	fmt.Fprintf(w, "%-10s %-10s %-12s %s\n", "precise", "need", "delivered", "overdelivery")
	for _, res := range quantRes {
		fmt.Fprintf(w, "%-10v %-10.0f %-12.1f %.2fx\n", res.Precise, res.NeedPPT, res.GotShare, res.Overdelivery)
	}
}
