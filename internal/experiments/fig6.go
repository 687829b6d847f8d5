package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/progress"
	"repro/internal/sim"
	"repro/internal/workload"
)

// PipelineConfig is the §4.2 pulse pipeline: a producer with a fixed
// reservation and a pulse-driven rate, feeding a controlled real-rate
// consumer through a bounded buffer.
type PipelineConfig struct {
	// QueueSize in bytes (default 1 MiB).
	QueueSize int64
	// ProducerProportion (ppt) and ProducerPeriod form the producer's
	// fixed reservation (default 100 ppt over 10 ms).
	ProducerProportion int
	ProducerPeriod     sim.Duration
	// CyclesPerBlock is the producer's loop length (default 400k = 1 ms).
	CyclesPerBlock sim.Cycles
	// BaseRate is the resting production rate in bytes/Kcycle (default
	// 50, doubling to 100 during pulses).
	BaseRate float64
	// PulseStart, PulseWidths, PulseGap shape the Figure 6 pulse train.
	PulseStart  sim.Time
	PulseWidths []sim.Duration
	PulseGap    sim.Duration
	// ConsumerBlock and ConsumerCyclesPerByte set the consumer's fixed
	// processing cost (defaults 4096 bytes and 40 cycles/byte: the
	// consumer needs 200 ppt at the base rate, 400 ppt at the doubled
	// rate).
	ConsumerBlock         int64
	ConsumerCyclesPerByte float64
	// Duration is the experiment length (default 40 s, as in the paper).
	Duration sim.Duration
	// SampleEvery sets the plotting resolution (default 100 ms).
	SampleEvery sim.Duration
	// WithHog adds the Figure 7 competing miscellaneous load.
	WithHog bool
	// Ctl, when set, tweaks the controller configuration (used by the
	// ablation studies).
	Ctl func(*core.Config)
	// OnActuation, when set, receives every reservation change the
	// controller pushes during the run — the observer seam threaded
	// through the experiment rig (cmd/rrtrace streams it as CSV).
	OnActuation func(now sim.Time, thread string, proportion int, period sim.Duration)
}

func (c *PipelineConfig) fillDefaults() {
	if c.QueueSize == 0 {
		c.QueueSize = 1 << 20
	}
	if c.ProducerProportion == 0 {
		c.ProducerProportion = 100
	}
	if c.ProducerPeriod == 0 {
		c.ProducerPeriod = 10 * sim.Millisecond
	}
	if c.CyclesPerBlock == 0 {
		c.CyclesPerBlock = 400_000
	}
	if c.BaseRate == 0 {
		c.BaseRate = 50
	}
	if c.PulseStart == 0 {
		c.PulseStart = sim.Time(4 * sim.Second)
	}
	if len(c.PulseWidths) == 0 {
		c.PulseWidths = []sim.Duration{1 * sim.Second, 2 * sim.Second, 3 * sim.Second}
	}
	if c.PulseGap == 0 {
		c.PulseGap = 2 * sim.Second
	}
	if c.ConsumerBlock == 0 {
		c.ConsumerBlock = 4096
	}
	if c.ConsumerCyclesPerByte == 0 {
		c.ConsumerCyclesPerByte = 40
	}
	if c.Duration == 0 {
		c.Duration = 40 * sim.Second
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 100 * sim.Millisecond
	}
}

// PipelineResult holds the series Figures 6 and 7 plot, plus summary
// numbers for EXPERIMENTS.md.
type PipelineResult struct {
	// ProducerRate and ConsumerRate are progress rates in bytes/sec.
	ProducerRate, ConsumerRate *metrics.Series
	// FillLevel is the queue fill in [0,1].
	FillLevel *metrics.Series
	// ConsumerAlloc, ProducerAlloc, HogAlloc are allocations in ppt
	// (HogAlloc nil without the hog).
	ConsumerAlloc, ProducerAlloc, HogAlloc *metrics.Series
	// DriveRate is the commanded production rate in bytes/Kcycle
	// (Figure 7's third panel).
	DriveRate *metrics.Series

	// ResponseTime is how long the consumer allocation took to reach 90%
	// of its doubled level after the first rising pulse (paper: ≈1/3 s).
	ResponseTime sim.Duration
	Settled      bool
	// MeanFill and FillStd summarize the fill level over the steady tail.
	MeanFill, FillStd float64
	// TrackingError is the mean |consumerRate −
	// producerRate|/producerRate over the run, after the initial ramp.
	TrackingError float64
	// HogShare is the hog's total CPU share (Figure 7 only).
	HogShare float64
	// QualityExceptions counts exceptions raised during the run.
	QualityExceptions int
}

// RunPipeline executes the Figure 6 (WithHog=false) or Figure 7
// (WithHog=true) experiment.
func RunPipeline(cfg PipelineConfig) PipelineResult {
	cfg.fillDefaults()
	r := newRig(nil, cfg.Ctl)
	var quality int
	events := core.EventQuality
	if cfg.OnActuation != nil {
		events |= core.EventActuate
	}
	r.ctl.Subscribe(core.SinkFunc(func(ev core.Event) {
		if ev.Kind == core.EventQuality {
			quality++
			return
		}
		cfg.OnActuation(ev.Time, ev.Job.Thread().Name(), ev.Prop, ev.Period)
	}), events)

	q := r.kern.NewQueue("pipe", cfg.QueueSize)
	rate := workload.PulseTrain(cfg.BaseRate, cfg.PulseStart, cfg.PulseWidths, cfg.PulseGap)
	prod := &workload.Producer{Queue: q, CyclesPerBlock: cfg.CyclesPerBlock, Rate: rate}
	cons := &workload.Consumer{Queue: q, BlockBytes: cfg.ConsumerBlock, CyclesPerByte: cfg.ConsumerCyclesPerByte}

	pt := r.kern.Spawn("producer", prod)
	ct := r.kern.Spawn("consumer", cons)
	pj, err := r.ctl.AddRealTime(pt, cfg.ProducerProportion, cfg.ProducerPeriod)
	if err != nil {
		panic(err)
	}
	r.reg.RegisterQueue(pt, q, progress.Producer)
	r.reg.RegisterQueue(ct, q, progress.Consumer)
	cj := r.ctl.AddRealRate(ct, 10*sim.Millisecond)

	var hogThread *kernel.Thread
	var hogJob *core.Job
	if cfg.WithHog {
		hogThread = r.kern.Spawn("hog", &workload.Hog{Burst: 400_000})
		hogJob = r.ctl.AddMiscellaneous(hogThread)
	}

	res := PipelineResult{
		ProducerRate:  metrics.NewSeries("producer_bytes_per_s"),
		ConsumerRate:  metrics.NewSeries("consumer_bytes_per_s"),
		FillLevel:     metrics.NewSeries("fill_level"),
		ConsumerAlloc: metrics.NewSeries("consumer_alloc_ppt"),
		ProducerAlloc: metrics.NewSeries("producer_alloc_ppt"),
		DriveRate:     metrics.NewSeries("drive_bytes_per_kcycle"),
	}
	if cfg.WithHog {
		res.HogAlloc = metrics.NewSeries("hog_alloc_ppt")
	}
	prodRate := metrics.NewRateSampler("producer_bytes_per_s")
	consRate := metrics.NewRateSampler("consumer_bytes_per_s")
	prodRate.Series = res.ProducerRate
	consRate.Series = res.ConsumerRate
	// Prime at t=0 so the rate series align sample-for-sample with the
	// other columns.
	prodRate.Observe(0, 0)
	consRate.Observe(0, 0)

	horizon := sim.Time(cfg.Duration)
	metrics.Sample(r.eng, cfg.SampleEvery, horizon, func(now sim.Time) {
		prodRate.Observe(now, float64(q.Produced()))
		consRate.Observe(now, float64(q.Consumed()))
		res.FillLevel.Add(now, q.FillLevel())
		res.ConsumerAlloc.Add(now, float64(cj.Allocated()))
		res.ProducerAlloc.Add(now, float64(pj.Allocated()))
		res.DriveRate.Add(now, rate(now))
		if res.HogAlloc != nil {
			res.HogAlloc.Add(now, float64(hogJob.Allocated()))
		}
	})

	r.start()
	r.eng.RunFor(cfg.Duration)
	r.kern.Stop()

	// Response time to the first rising pulse: allocation from its steady
	// base level to 90% of double.
	base := res.ConsumerAlloc.TimeWeightedMean(cfg.PulseStart.Add(-sim.Duration(sim.Second)), cfg.PulseStart)
	resp := metrics.MeasureStep(res.ConsumerAlloc, cfg.PulseStart, base, 2*base,
		cfg.PulseStart.Add(cfg.PulseWidths[0]))
	res.ResponseTime = resp.RiseTime
	res.Settled = resp.Settled

	tail := res.FillLevel.Slice(sim.Time(2*sim.Second), horizon)
	res.MeanFill = tail.Mean()
	res.FillStd = metrics.StdDev(tail.Values())
	res.TrackingError = trackingError(res.ProducerRate, res.ConsumerRate, sim.Time(2*sim.Second))
	if hogThread != nil {
		res.HogShare = hogThread.CPUTime().Seconds() / cfg.Duration.Seconds()
	}
	res.QualityExceptions = quality
	return res
}

// trackingError averages |cons−prod|/prod over paired samples after warmup.
func trackingError(prod, cons *metrics.Series, after sim.Time) float64 {
	var sum float64
	var n int
	for i := 0; i < prod.Len() && i < cons.Len(); i++ {
		p := prod.At(i)
		c := cons.At(i)
		if p.T < after || p.V <= 0 {
			continue
		}
		d := (c.V - p.V) / p.V
		if d < 0 {
			d = -d
		}
		sum += d
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Print writes the paper-style report for Figure 6.
func (res PipelineResult) Print(w io.Writer, fig string) {
	section(w, fig)
	fmt.Fprintf(w, "consumer allocation response to rate doubling: %v (settled=%v)\n",
		res.ResponseTime, res.Settled)
	fmt.Fprintf(w, "mean fill level %.3f (std %.3f); tracking error %.1f%%\n",
		res.MeanFill, res.FillStd, res.TrackingError*100)
	if res.HogAlloc != nil {
		fmt.Fprintf(w, "hog CPU share %.3f; quality exceptions %d\n", res.HogShare, res.QualityExceptions)
	}
	fmt.Fprintf(w, "paper:      response ≈1/3 s; fill recovers toward 1/2 between pulses\n")
	fmt.Fprintf(w, "series: %d samples over %d columns (use -csv to dump)\n",
		res.FillLevel.Len(), 6)
}

// WriteCSV dumps all series as one aligned table.
func (res PipelineResult) WriteCSV(w io.Writer) error {
	cols := []*metrics.Series{
		res.DriveRate, res.ProducerRate, res.ConsumerRate,
		res.FillLevel, res.ConsumerAlloc, res.ProducerAlloc,
	}
	if res.HogAlloc != nil {
		cols = append(cols, res.HogAlloc)
	}
	return metrics.WriteTableCSV(w, cols...)
}
