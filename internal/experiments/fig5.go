package experiments

import (
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Fig5Point is one x/y point of Figure 5: controller CPU overhead versus
// the number of controlled processes.
type Fig5Point struct {
	Processes int
	Overhead  float64 // fraction of CPU consumed by the controller
}

// Fig5Result reproduces Figure 5 ("Overhead of Controller"): the paper
// reports a linear fit y = .00066x + .00057 with R² = .999 and 2.7% of CPU
// at 40 controlled processes.
type Fig5Result struct {
	Points []Fig5Point
	Fit    metrics.Linear
	// At40 is the overhead at 40 processes (the paper's headline 2.7%).
	At40 float64
}

// Fig5Config parameterizes the sweep.
type Fig5Config struct {
	// MaxProcesses is the largest process count (default 40).
	MaxProcesses int
	// Step is the sweep increment (default 5).
	Step int
	// RunFor is the measurement window per point (default 20 s).
	RunFor sim.Duration
}

// RunFig5 sweeps the number of controlled dummy processes and measures the
// controller thread's CPU consumption. The dummies match the paper's:
// "dummy processes that consume no CPU but are scheduled, monitored, and
// controlled."
func RunFig5(cfg Fig5Config) Fig5Result {
	if cfg.MaxProcesses == 0 {
		cfg.MaxProcesses = 40
	}
	if cfg.Step == 0 {
		cfg.Step = 5
	}
	if cfg.RunFor == 0 {
		cfg.RunFor = 20 * sim.Second
	}
	var res Fig5Result
	var counts []int
	for n := 0; n <= cfg.MaxProcesses; n += cfg.Step {
		counts = append(counts, n)
	}
	// Each point is an independent machine: shard the sweep across CPUs.
	res.Points = Sweep(len(counts), func(i int) Fig5Point {
		return Fig5Point{
			Processes: counts[i],
			Overhead:  measureControllerOverhead(counts[i], cfg.RunFor),
		}
	})
	xs := make([]float64, len(res.Points))
	ys := make([]float64, len(res.Points))
	for i, p := range res.Points {
		xs[i] = float64(p.Processes)
		ys[i] = p.Overhead
	}
	res.Fit = metrics.FitLinear(xs, ys)
	res.At40 = res.Fit.Slope*40 + res.Fit.Intercept
	return res
}

func measureControllerOverhead(n int, runFor sim.Duration) float64 {
	r := newRig(nil, nil)
	for i := 0; i < n; i++ {
		// A dummy controlled process: sleeps forever in 50 ms naps, so it
		// is scheduled and monitored but consumes (almost) no CPU.
		th := r.kern.Spawn(fmt.Sprintf("dummy%d", i), sleepyProgram())
		r.ctl.AddMiscellaneous(th)
	}
	r.start()
	r.eng.RunFor(runFor)
	r.kern.Stop()
	return r.plane.CPUTime().Seconds() / runFor.Seconds()
}

// Print writes the paper-style report.
func (res Fig5Result) Print(w io.Writer) {
	section(w, "Figure 5: Overhead of Controller")
	fmt.Fprintf(w, "%-12s %s\n", "processes", "controller CPU fraction")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%-12d %.5f\n", p.Processes, p.Overhead)
	}
	fmt.Fprintf(w, "linear fit: y = %.5fx + %.5f  (R^2 = %.4f)\n",
		res.Fit.Slope, res.Fit.Intercept, res.Fit.R2)
	fmt.Fprintf(w, "overhead at 40 jobs: %.2f%% of CPU\n", res.At40*100)
	fmt.Fprintf(w, "paper:      y = 0.00066x + 0.00057 (R^2 = 0.999); 2.7%% at 40 jobs\n")
}

// WriteCSV dumps the points for plotting.
func (res Fig5Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "processes,controller_cpu_fraction"); err != nil {
		return err
	}
	for _, p := range res.Points {
		if _, err := fmt.Fprintf(w, "%d,%.6f\n", p.Processes, p.Overhead); err != nil {
			return err
		}
	}
	return nil
}
