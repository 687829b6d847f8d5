package ctlplane

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// fuzzSeed is one input of FuzzEventDrivenThresholds.
type fuzzSeed struct {
	threshold     float64
	stalenessMs   int64
	shards, njobs uint8
}

// fuzzSeeds are FuzzEventDrivenThresholds' seed corpus. The first four run
// the default (Figure 5) cost model.
var fuzzSeeds = []fuzzSeed{
	{0.05, 100, 4, 24},
	{0.0, 0, 0, 1},
	{1.5, 1, 64, 40},
	{-3.0, 100000, 7, 13},
	{0.05, 100, 1, 128},
}

// FuzzEventDrivenThresholds drives the event-driven plane under arbitrary
// threshold/staleness/shard configurations and checks the liveness
// contract: whatever the knobs say, a job's first visit samples it, and
// no job goes more than the (normalized) staleness bound without a fresh
// sample.
// A starved job would mean its feedback loop is open — allocations frozen
// while the workload changes — so this bound is the mode's safety
// property. At every epoch end it also checks the skip path's contract
// (skipContract): a shard whose gates are shut holds only entries homed on
// it whose caches equal their jobs. And it checks that every shard's last
// tick, idle or walking (DESIGN.md §10.5), visited each live entry on its
// list that the lastEpoch guard let through exactly once: its sampled and
// skipped counts sum to them.
//
// Each input runs twice, as built and with every walk forced to run its
// squish, and the two runs must emit the same control events and end with
// the same job states: a skipped squish (DESIGN.md §10.5) changes nothing
// but the host time. Both runs also check installedContract at every
// epoch end.
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
	for _, s := range fuzzSeeds {
		f.Add(s.threshold, s.stalenessMs, s.shards, s.njobs)
	}
	f.Fuzz(func(t *testing.T, threshold float64, stalenessMs int64, shards, njobs uint8) {
		in := fuzzSeed{threshold, stalenessMs, shards, njobs}
		built, builtLog := fuzzPlane(t, in, false)
		forced, forcedLog := fuzzPlane(t, in, true)
		if i, ok := firstDiff(builtLog, forcedLog); !ok {
			t.Fatalf("%+v: skipped and forced squishes emit different events at %d:\nskipped: %s\nforced:  %s",
				in, i, lineAt(builtLog, i), lineAt(forcedLog, i))
		}
		if a, b := jobsLine(built.ctl), jobsLine(forced.ctl); a != b {
			t.Fatalf("%+v: skipped and forced squishes end in different job states:\nskipped: %s\nforced:  %s", in, a, b)
		}
	})
}

// fuzzPlane runs one FuzzEventDrivenThresholds input for a simulated
// second, checking the contracts at every epoch end, and returns its rig
// and every control event it emitted. forceSquish makes every walk run
// its squish.
func fuzzPlane(t *testing.T, in fuzzSeed, forceSquish bool) (*rig, []string) {
	threshold, stalenessMs, shards, njobs := in.threshold, in.stalenessMs, in.shards, in.njobs
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
	r := newRigCfg(machine(1), ccfg, Config{
		Mode:         EventDriven,
		Shards:       int(shards),
		Threshold:    threshold,
		MaxStaleness: sim.Duration(stalenessMs) * sim.Millisecond,
	})
	r.plane.forceSquish = forceSquish
	var events []string
	r.ctl.Subscribe(core.SinkFunc(func(ev core.Event) { events = append(events, eventLine(ev)) }), ^core.EventKind(0))
	r.addMisc(n)
	r.addPipeline("p0", 128)
	r.start()

	bound := r.plane.StalenessEpochs()
	late := make([]uint64, len(r.plane.shards))
	r.onStep(func(now sim.Time) {
		if _, _, err := skipContract(r.plane); err != nil {
			t.Fatalf("threshold=%v staleness=%dms shards=%d: t=%v: %v", threshold, stalenessMs, shards, now, err)
		}
		if err := installedContract(r.plane); err != nil {
			t.Fatalf("threshold=%v staleness=%dms shards=%d: t=%v: %v", threshold, stalenessMs, shards, now, err)
		}
		for _, sh := range r.plane.shards {
			live := 0
			for _, e := range sh.list {
				if e.removed {
					continue
				}
				live++
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
			if sh.handoffs != 0 {
				t.Fatalf("threshold=%v staleness=%dms shards=%d: shard %d re-homed %d jobs on one CPU",
					threshold, stalenessMs, shards, sh.id, sh.handoffs)
			}
			// Nothing joins, leaves or changes home after Start on this
			// one-CPU machine, so every live entry was on the list at the
			// shard's last tick, and only a tick in epoch 0 or a second tick
			// in one epoch, which counts as late, meets the lastEpoch guard.
			// Shards whose last tick may have been such a tick are left out.
			guarded := sh.lastTick == 0 || sh.lateTicks != late[sh.id]
			late[sh.id] = sh.lateTicks
			if got := sh.lastSampled + sh.lastSkipped; !guarded && got != live {
				t.Fatalf("threshold=%v staleness=%dms shards=%d: t=%v: shard %d's last tick visited %d+%d jobs, its list holds %d",
					threshold, stalenessMs, shards, now, sh.id, sh.lastSampled, sh.lastSkipped, live)
			}
		}
	})
	r.eng.RunFor(sim.Second)
	if r.plane.Epoch() == 0 {
		t.Fatal("no epochs ran")
	}
	return r, events
}

// lateTicks sums the shards' late-tick counts.
func lateTicks(p *Plane) uint64 {
	var total uint64
	for _, st := range p.Stats() {
		total += st.LateTicks
	}
	return total
}

// TestFuzzSeedsRunOnTime pins the late-tick count at zero where the plane
// keeps up: the fuzz seeds that run the default (Figure 5) cost model.
func TestFuzzSeedsRunOnTime(t *testing.T) {
	for _, in := range fuzzSeeds {
		if in.njobs > 64 {
			continue
		}
		r, _ := fuzzPlane(t, in, false)
		if n := lateTicks(r.plane); n != 0 {
			t.Errorf("seed %+v: %d late ticks, want 0", in, n)
		}
	}
}

// TestOverrunCountsLateTicks pins the plane's overrun signal. 440
// miscellaneous jobs under the Figure 5 cost model cost about 2.9 ms of
// each 10 ms interval, against a 5% reservation split 13 ways on one CPU:
// the shards fall behind shard 0's epochs, and their ticks must be
// counted late.
func TestOverrunCountsLateTicks(t *testing.T) {
	r := newRig(1, Config{Mode: EventDriven, Shards: 13, Threshold: 0.05, MaxStaleness: 9 * sim.Millisecond})
	r.addMisc(440)
	r.addPipeline("p0", 128)
	r.start()
	var worst int64
	r.onStep(func(sim.Time) {
		for _, s := range r.plane.shards {
			worst = max(worst, r.plane.epoch-s.lastTick)
		}
	})
	r.eng.RunFor(sim.Second)
	n := lateTicks(r.plane)
	if n == 0 {
		t.Fatal("an overrunning plane counted no late ticks")
	}
	t.Logf("%d late ticks in 1 s; at an epoch end a shard's last tick lagged by up to %d epochs (bound %d)",
		n, worst, r.plane.StalenessEpochs())
}
