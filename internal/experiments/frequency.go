package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/sim"
)

// FrequencyPoint is one controller-rate sample of the §4.3 improvement
// study: "we plan to lower the overhead of the controller in order to run
// it at a higher frequency. Calculating the [allocations] more frequently
// causes the allocation to change faster, and results in a more responsive
// system without affecting its stability."
type FrequencyPoint struct {
	Interval     sim.Duration
	ResponseTime sim.Duration
	Settled      bool
	FillStd      float64
	// ControllerShare is the controller's own CPU fraction at this rate.
	ControllerShare float64
}

// FrequencyResult sweeps the controller interval on the Figure 6 pipeline.
type FrequencyResult struct {
	Points []FrequencyPoint
}

// RunFrequencySweep measures responsiveness and controller overhead across
// control intervals.
func RunFrequencySweep(intervals []sim.Duration, duration sim.Duration) FrequencyResult {
	if len(intervals) == 0 {
		intervals = []sim.Duration{
			5 * sim.Millisecond,
			10 * sim.Millisecond,
			20 * sim.Millisecond,
			50 * sim.Millisecond,
			100 * sim.Millisecond,
		}
	}
	if duration == 0 {
		duration = 15 * sim.Second
	}
	var res FrequencyResult
	// Each interval needs two independent machines: the pulse pipeline and
	// the controller-share measurement. Flatten both into one sweep.
	n := len(intervals)
	type freqHalf struct {
		pipeline PipelineResult
		share    float64
	}
	halves := Sweep(2*n, func(i int) freqHalf {
		interval := intervals[i%n]
		if i < n {
			cfg := PipelineConfig{
				Duration:    duration,
				PulseWidths: []sim.Duration{2 * sim.Second},
				// Fine sampling so response-time differences between
				// control rates resolve.
				SampleEvery: 20 * sim.Millisecond,
			}
			cfg.Ctl = func(cc *core.Config) {
				cc.Interval = interval
				// The controller's own reservation must fit its period.
				def := core.DefaultConfig()
				cc.Reservation = def.Reservation
				cc.Reservation.Period = interval
			}
			return freqHalf{pipeline: RunPipeline(cfg)}
		}
		// Controller share per rate, measured separately on an otherwise
		// unloaded machine with 10 controlled dummies.
		return freqHalf{share: controllerShareAt(interval)}
	})
	for i, iv := range intervals {
		pr := halves[i].pipeline
		res.Points = append(res.Points, FrequencyPoint{
			Interval:        iv,
			ResponseTime:    pr.ResponseTime,
			Settled:         pr.Settled,
			FillStd:         pr.FillStd,
			ControllerShare: halves[n+i].share,
		})
	}
	return res
}

func controllerShareAt(interval sim.Duration) float64 {
	r := newRig(nil, func(cc *core.Config) {
		cc.Interval = interval
		def := core.DefaultConfig()
		cc.Reservation = def.Reservation
		cc.Reservation.Period = interval
	})
	for i := 0; i < 10; i++ {
		th := r.kern.Spawn("dummy", sleepyProgram())
		r.ctl.AddMiscellaneous(th)
	}
	r.start()
	r.eng.RunFor(10 * sim.Second)
	r.kern.Stop()
	return r.plane.CPUTime().Seconds() / 10
}

// Print writes the sweep table.
func (res FrequencyResult) Print(w io.Writer) {
	section(w, "Controller frequency sweep (§4.3: higher frequency → faster response)")
	fmt.Fprintf(w, "%-12s %-12s %-10s %s\n", "interval", "response", "fill-std", "controller CPU")
	for _, p := range res.Points {
		resp := "did not settle"
		if p.Settled {
			resp = p.ResponseTime.String()
		}
		fmt.Fprintf(w, "%-12v %-12s %-10.3f %.4f\n", p.Interval, resp, p.FillStd, p.ControllerShare)
	}
}
