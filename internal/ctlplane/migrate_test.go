package ctlplane

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// pulseMetric is a synthetic progress signal that alternates sign on every
// sample, so the controller's desire keeps changing (every sample
// actuates) and every sample is observable as one Pressure call.
type pulseMetric struct {
	calls int
}

func (m *pulseMetric) Pressure(now sim.Time) float64 {
	m.calls++
	if m.calls%2 == 0 {
		return -0.2
	}
	return 0.2
}

func (m *pulseMetric) Describe() string { return "pulse" }

// TestMigrationHandoffExactlyOnce is the migration × control-state
// contract: a job pulled to another CPU mid-interval keeps its estimator
// state and is sampled exactly once per control epoch — no double-sample
// when source and destination shards both tick in the same epoch, no lost
// sample when the re-home crosses the stagger boundary.
//
// The machine is rigged so the real-rate job is the only migratable
// thread: every ballast hog is pinned to its CPU, so each work-pull by an
// idle CPU moves exactly the job under test.
func TestMigrationHandoffExactlyOnce(t *testing.T) {
	for _, cpus := range []int{2, 4, 8} {
		r := newRig(cpus, Config{Shards: cpus})

		// One pinned duty-cycle hog per CPU: busy enough to push the
		// unpinned job off, idle enough to pull it back.
		for c := 0; c < cpus; c++ {
			ops := [2]kernel.Op{
				&kernel.OpCompute{Cycles: 2_000_000}, // 5 ms at 400 MHz
				&kernel.OpSleep{D: 5 * sim.Millisecond},
			}
			var i int
			th := r.kern.SpawnAffinity("hog", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
				op := ops[i%2]
				i++
				return op
			}), c)
			r.ctl.AddMiscellaneous(th)
		}

		jobOps := [2]kernel.Op{
			&kernel.OpCompute{Cycles: 800_000}, // 2 ms at 400 MHz
			&kernel.OpSleep{D: 3 * sim.Millisecond},
		}
		var ji int
		wanderer := r.kern.Spawn("wanderer", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
			op := jobOps[ji%2]
			ji++
			return op
		}))
		pm := &pulseMetric{}
		r.reg.Register(wanderer, pm)
		job := r.ctl.AddRealRate(wanderer, 0)

		// Every actuation of the job, stamped with the epoch it happened
		// in: two in one epoch would mean a double-sample slipped through.
		perEpoch := make(map[int64]int)
		r.ctl.Subscribe(core.SinkFunc(func(ev core.Event) {
			if ev.Job == job {
				perEpoch[r.plane.Epoch()]++
			}
		}), core.EventActuate)

		r.start()
		r.eng.RunFor(2 * sim.Second)

		if wanderer.Migrations() == 0 {
			t.Fatalf("cpus=%d: wanderer never migrated; rig is not exercising handoff", cpus)
		}
		var handoffs uint64
		for _, st := range r.plane.Stats() {
			handoffs += st.Handoffs
		}
		if handoffs == 0 {
			t.Fatalf("cpus=%d: %d migrations but no shard handoffs", cpus, wanderer.Migrations())
		}
		checkLive(t, r.plane)

		// Exactly one sample per epoch: the final epoch may still be open
		// (the job's current owner shard not yet ticked), so one pending
		// sample is allowed.
		epochs := int(r.plane.Epoch())
		if pm.calls != epochs && pm.calls != epochs-1 {
			t.Errorf("cpus=%d: %d samples over %d epochs (migrations %d, handoffs %d); want exactly one per epoch",
				cpus, pm.calls, epochs, wanderer.Migrations(), handoffs)
		}
		for e, n := range perEpoch {
			if n > 1 {
				t.Errorf("cpus=%d: epoch %d actuated the job %d times, want ≤ 1", cpus, e, n)
			}
		}
	}
}
