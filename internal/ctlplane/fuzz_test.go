package ctlplane

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// FuzzEventDrivenThresholds drives the event-driven plane under arbitrary
// threshold/staleness/shard configurations and checks the liveness
// contract: whatever the knobs say, a job's first visit samples it, and
// no job goes more than the (normalized) staleness bound without a fresh
// sample.
// A starved job would mean its feedback loop is open — allocations frozen
// while the workload changes — so this bound is the mode's safety
// property. At every epoch end it also checks the skip path's contract
// (skipContract): a shard whose gates are shut holds only entries homed on
// it whose caches equal their jobs.
//
// njobs 1–64 run that many miscellaneous jobs plus a pipeline under the
// default (Figure 5) cost model; 0 runs 16. njobs 65–255 run
// 8·(1 + (njobs−65) mod 64) jobs, 8–512, so one shard's due set can span
// several sample blocks (core.PrefetchBlock) and end in a partial one. At
// that size the Figure 5 cost model (2640 cycles a job) outruns the
// plane's 5% reservation, and shards that cannot finish their ticks
// cannot keep any staleness bound, so those inputs collapse the modeled
// cost as the scale tests do.
func FuzzEventDrivenThresholds(f *testing.F) {
	f.Add(0.05, int64(100), uint8(4), uint8(24))
	f.Add(0.0, int64(0), uint8(0), uint8(1))
	f.Add(1.5, int64(1), uint8(64), uint8(40))
	f.Add(-3.0, int64(100000), uint8(7), uint8(13))
	f.Add(0.05, int64(100), uint8(1), uint8(128))
	f.Fuzz(func(t *testing.T, threshold float64, stalenessMs int64, shards, njobs uint8) {
		ccfg, n := core.Config{}, int(njobs)
		switch {
		case njobs == 0:
			n = 16
		case njobs > 64:
			ccfg = core.Config{BaseCost: 100, PerJobCost: 1}
			n = 8 * (1 + (n-65)%64)
		}
		if stalenessMs < 0 {
			stalenessMs = -stalenessMs
		}
		if stalenessMs > 1000 {
			stalenessMs = 1000
		}
		r := newRigCfg(1, ccfg, Config{
			Mode:         EventDriven,
			Shards:       int(shards),
			Threshold:    threshold,
			MaxStaleness: sim.Duration(stalenessMs) * sim.Millisecond,
		})
		r.addMisc(n)
		r.addPipeline("p0", 128)
		r.start()

		bound := r.plane.StalenessEpochs()
		r.onStep(func(now sim.Time) {
			if _, _, err := skipContract(r.plane); err != nil {
				t.Fatalf("threshold=%v staleness=%dms shards=%d: t=%v: %v", threshold, stalenessMs, shards, now, err)
			}
			for _, sh := range r.plane.shards {
				for _, e := range sh.list {
					if e.removed {
						continue
					}
					if !e.sampled {
						// A first visit always samples, so only a job admitted
						// after its shard's last tick may be unsampled.
						if e.lastEpoch != 0 {
							t.Fatalf("threshold=%v staleness=%dms shards=%d: job %q visited but never sampled",
								threshold, stalenessMs, shards, e.job.Thread().Name())
						}
						continue
					}
					if gap := r.plane.epoch - e.sampleEpoch; gap > bound {
						t.Fatalf("threshold=%v staleness=%dms shards=%d: job %q un-sampled for %d epochs, bound %d",
							threshold, stalenessMs, shards, e.job.Thread().Name(), gap, bound)
					}
				}
			}
		})
		r.eng.RunFor(sim.Second)
		if r.plane.Epoch() == 0 {
			t.Fatal("no epochs ran")
		}
	})
}
