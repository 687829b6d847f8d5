package ctlplane

import (
	"testing"

	"repro/internal/sim"
)

// FuzzEventDrivenThresholds drives the event-driven plane under arbitrary
// threshold/staleness/shard configurations and checks the liveness
// contract: whatever the knobs say, no job that has ever been sampled
// goes more than the (normalized) staleness bound without a fresh sample.
// A starved job would mean its feedback loop is open — allocations frozen
// while the workload changes — so this bound is the mode's safety
// property. At every epoch end it also checks the skip path's contract
// (skipContract): a shard whose gates are shut holds only entries homed on
// it whose caches equal their jobs.
func FuzzEventDrivenThresholds(f *testing.F) {
	f.Add(0.05, int64(100), uint8(4), uint8(24))
	f.Add(0.0, int64(0), uint8(0), uint8(1))
	f.Add(1.5, int64(1), uint8(64), uint8(40))
	f.Add(-3.0, int64(100000), uint8(7), uint8(13))
	f.Fuzz(func(t *testing.T, threshold float64, stalenessMs int64, shards, njobs uint8) {
		if njobs == 0 || njobs > 64 {
			njobs = 16
		}
		if stalenessMs < 0 {
			stalenessMs = -stalenessMs
		}
		if stalenessMs > 1000 {
			stalenessMs = 1000
		}
		r := newRig(1, Config{
			Mode:         EventDriven,
			Shards:       int(shards),
			Threshold:    threshold,
			MaxStaleness: sim.Duration(stalenessMs) * sim.Millisecond,
		})
		r.addMisc(int(njobs))
		r.addPipeline("p0", 128)
		r.start()

		bound := r.plane.StalenessEpochs()
		r.onStep(func(now sim.Time) {
			if _, _, err := skipContract(r.plane); err != nil {
				t.Fatalf("threshold=%v staleness=%dms shards=%d: t=%v: %v", threshold, stalenessMs, shards, now, err)
			}
			for _, sh := range r.plane.shards {
				for _, e := range sh.list {
					if !e.sampled || e.removed {
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
