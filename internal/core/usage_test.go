package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// TestIdleUsageFlushesToZero pins the usage estimators' subnormal flush.
// At a 10-epoch sample gap the smoothing factor is exactly 1/2, so a job
// that holds a grant and uses none of it halves both estimates at every
// sample. Without the flush they stop at the smallest subnormal float64
// and every later sample does subnormal arithmetic; with it they end at
// exactly 0.
func TestIdleUsageFlushesToZero(t *testing.T) {
	r := newRig(core.Config{})
	burst, nap := kernel.Compute(400_000), kernel.Sleep(3600*sim.Second)
	ran := false
	th := r.kern.Spawn("idle", kernel.ProgramFunc(func(*kernel.Thread, sim.Time) kernel.Op {
		if ran {
			return nap
		}
		ran = true
		return burst
	}))
	j := r.ctl.AddMiscellaneous(th)
	r.kern.Start()
	r.run(20 * sim.Millisecond)
	if j.Allocated() == 0 || th.CPUTime() == 0 {
		t.Fatalf("the job holds %d ppt and used %v; want a grant and some use", j.Allocated(), th.CPUTime())
	}
	now := r.kern.Now()
	r.ctl.SampleJob(j, now, 10)
	if ratio, ppt := j.UsageEstimates(); ratio == 0 || ppt == 0 {
		t.Fatalf("after the burst's sample the estimates read %g and %g; want both positive", ratio, ppt)
	}
	for i := 0; i < 1200; i++ {
		r.ctl.SampleJob(j, now, 10)
	}
	if ratio, ppt := j.UsageEstimates(); ratio != 0 || ppt != 0 {
		t.Fatalf("after 1,200 idle samples the estimates read %g and %g; want exactly 0", ratio, ppt)
	}
}
