package ctlplane

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/progress"
	"repro/internal/rbs"
	"repro/internal/sim"
)

// rig is one simulated machine with a control plane over it.
type rig struct {
	eng    *sim.Engine
	kern   *kernel.Kernel
	policy *rbs.Policy
	reg    *progress.Registry
	ctl    *core.Controller
	plane  *Plane
}

// newRig builds a machine with the given CPU count and a plane in the
// given configuration. Jobs are added by the caller before start().
func newRig(cpus int, cfg Config) *rig {
	return newRigCfg(cpus, core.Config{}, cfg)
}

// newRigCfg is newRig with an explicit controller configuration — the
// scale tests shrink the modeled per-job cycle cost, since a literal
// Figure 5 machine (2640 cycles/job at 400 MHz) cannot even touch 10⁵⁺
// jobs inside one 10 ms interval.
func newRigCfg(cpus int, ccfg core.Config, cfg Config) *rig {
	eng := sim.NewEngine()
	policy := rbs.New()
	kcfg := kernel.DefaultConfig()
	kcfg.CPUs = cpus
	kern := kernel.New(eng, kcfg, policy)
	reg := progress.NewRegistry()
	ctl := core.New(kern, policy, reg, ccfg)
	return &rig{
		eng: eng, kern: kern, policy: policy, reg: reg, ctl: ctl,
		plane: New(ctl, kern, policy, reg, cfg),
	}
}

// onStep calls fn at the end of every control epoch.
func (r *rig) onStep(fn func(now sim.Time)) {
	r.ctl.Subscribe(core.SinkFunc(func(ev core.Event) { fn(ev.Time) }), core.EventStep)
}

func (r *rig) start() {
	r.plane.Start()
	r.kern.Start()
}

// addMisc spawns n sleepy miscellaneous jobs.
func (r *rig) addMisc(n int) {
	op := kernel.OpSleep{D: 50 * sim.Millisecond}
	prog := kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op { return &op })
	for i := 0; i < n; i++ {
		r.ctl.AddMiscellaneous(r.kern.Spawn("misc", prog))
	}
}

// addPipeline spawns a producer/consumer pair over one queue, registering
// the consumer as a real-rate job, and returns its job. rate paces the
// producer: bytes moved per 5 ms.
func (r *rig) addPipeline(name string, rate int64) *core.Job {
	q := r.kern.NewQueue(name, 1<<16)
	prodOps := [2]kernel.Op{
		&kernel.OpProduce{Queue: q, Bytes: rate},
		&kernel.OpSleep{D: 5 * sim.Millisecond},
	}
	var pi int
	prod := r.kern.Spawn(name+".prod", kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		op := prodOps[pi%2]
		pi++
		return op
	}))
	r.policy.SetReservation(prod, rbs.Reservation{Proportion: 100, Period: 10 * sim.Millisecond})
	consOps := [2]kernel.Op{
		&kernel.OpConsume{Queue: q, Bytes: rate},
		&kernel.OpCompute{Cycles: 40000},
	}
	var ci int
	cons := r.kern.Spawn(name+".cons", kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		op := consOps[ci%2]
		ci++
		return op
	}))
	r.reg.RegisterQueue(cons, q, progress.Consumer)
	return r.ctl.AddRealRate(cons, 0)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestShardedPeriodicConvergesLikeLegacy pins the capacity-split argument:
// with no floors binding, demand-proportional shard slices reproduce the
// global squish's steady-state allocations. Equal misc jobs must end up
// with near-equal shares under the zero-value plane — one shard, the
// paper's single global sweep — and under 4 shards.
func TestShardedPeriodicConvergesLikeLegacy(t *testing.T) {
	const n = 12
	leg := newRig(1, Config{})
	leg.addMisc(n)
	leg.start()
	leg.eng.RunFor(2 * sim.Second)

	sh := newRig(1, Config{Shards: 4})
	sh.addMisc(n)
	sh.start()
	sh.eng.RunFor(2 * sim.Second)

	lj, sj := leg.ctl.Jobs(), sh.ctl.Jobs()
	if len(lj) != len(sj) {
		t.Fatalf("job counts differ: %d vs %d", len(lj), len(sj))
	}
	for i := range lj {
		d := abs(lj[i].Allocated() - sj[i].Allocated())
		if d > 30 {
			t.Errorf("job %d: legacy %d ppt, sharded %d ppt (Δ%d > 30)",
				i, lj[i].Allocated(), sj[i].Allocated(), d)
		}
	}
	var total int
	for _, j := range sj {
		total += j.Allocated()
	}
	if total > sh.ctl.EffectiveThreshold() {
		t.Fatalf("sharded allocations sum to %d ppt, above the %d threshold",
			total, sh.ctl.EffectiveThreshold())
	}
}

// TestShardedExactlyOnceSampling pins the visit protocol: over E epochs,
// every adaptive job is sampled exactly E times in periodic mode no matter
// how many shards carve up the list.
func TestShardedExactlyOnceSampling(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		r := newRig(1, Config{Shards: shards})
		const n = 10
		r.addMisc(n)
		r.start()
		r.eng.RunFor(sim.Second)
		epochs := r.plane.Epoch()
		want := uint64(epochs) * n
		got := r.ctl.Samples()
		// The last epoch may be mid-flight (some shards not yet ticked), so
		// allow up to one epoch's worth of pending samples.
		if got > want || got < want-uint64(n) {
			t.Errorf("shards=%d: %d samples over %d epochs of %d jobs, want (%d, %d]",
				shards, got, epochs, n, want-uint64(n), want)
		}
	}
}

// TestEventDrivenSkipsIdleJobs pins the point of event mode: misc jobs
// with no progress signal are re-sampled only on the staleness bound, so
// samples ≪ epochs·jobs and skips make up the difference.
func TestEventDrivenSkipsIdleJobs(t *testing.T) {
	r := newRig(1, Config{Mode: EventDriven, Shards: 2})
	const n = 40
	r.addMisc(n)
	r.start()
	r.eng.RunFor(2 * sim.Second)

	epochs := uint64(r.plane.Epoch())
	var sampled, skipped uint64
	for _, st := range r.plane.Stats() {
		sampled += st.Sampled
		skipped += st.Skipped
	}
	full := epochs * n
	if sampled+skipped < full-n || sampled+skipped > full {
		t.Fatalf("visits %d (sampled %d + skipped %d) over %d epochs, want ≈%d",
			sampled+skipped, sampled, skipped, epochs, full)
	}
	// Staleness default is 10 epochs: sampling should be ~1/10th of the
	// periodic rate (plus the initial full pass).
	maxSampled := full/uint64(r.plane.StalenessEpochs()) + 2*n
	if sampled > maxSampled {
		t.Errorf("event mode sampled %d of %d visits, want ≤ %d", sampled, full, maxSampled)
	}
	if skipped == 0 {
		t.Error("event mode skipped nothing")
	}
}

// TestEventDrivenStalenessBound pins the feedback guarantee: no job goes
// longer than the staleness bound without a sample, whatever its signal
// does.
func TestEventDrivenStalenessBound(t *testing.T) {
	r := newRig(1, Config{Mode: EventDriven, Shards: 3, MaxStaleness: 40 * sim.Millisecond})
	r.addMisc(20)
	r.addPipeline("p0", 64)
	r.start()

	bound := r.plane.StalenessEpochs()
	r.onStep(func(now sim.Time) {
		for _, sh := range r.plane.shards {
			for _, e := range sh.list {
				if !e.sampled {
					continue
				}
				if gap := r.plane.epoch - e.sampleEpoch; gap > bound {
					t.Fatalf("t=%v: job %q un-sampled for %d epochs, bound %d",
						now, e.job.Thread().Name(), gap, bound)
				}
			}
		}
	})
	r.eng.RunFor(2 * sim.Second)
	if r.plane.Epoch() < 100 {
		t.Fatalf("only %d epochs ran", r.plane.Epoch())
	}
}

// TestEventDrivenTracksSignal pins the push half: a real-rate consumer
// whose queue moves keeps getting sampled and converges to a sane
// allocation even in event mode.
func TestEventDrivenTracksSignal(t *testing.T) {
	r := newRig(1, Config{Mode: EventDriven, Shards: 2})
	j := r.addPipeline("p0", 256)
	r.addMisc(10)
	r.start()
	r.eng.RunFor(3 * sim.Second)
	if j.Allocated() <= 0 {
		t.Fatalf("real-rate job allocated %d ppt under event mode", j.Allocated())
	}
	if r.ctl.Samples() == 0 {
		t.Fatal("no samples taken")
	}
}

// TestShardStaggering pins the phase schedule: shard s's first tick lands
// at Interval + s·Interval/S, so control work spreads across the interval
// instead of bursting.
func TestShardStaggering(t *testing.T) {
	r := newRig(1, Config{Shards: 4})
	r.addMisc(8)
	var ticks []sim.Time
	r.onStep(func(now sim.Time) { ticks = append(ticks, now) })
	r.start()
	r.eng.RunFor(sim.Second)
	// Every shard ticks once immediately at start (as a lone shard
	// does); from then on the last shard wakes at
	// interval·(1 + 3/4) and every interval after, so the epilogue
	// settles into the 100 Hz cadence offset by the stagger.
	if len(ticks) < 10 {
		t.Fatalf("only %d epochs completed", len(ticks))
	}
	iv := r.ctl.Config().Interval
	want := sim.Time(0).Add(iv).Add(sim.Duration(int64(iv) * 3 / 4))
	if ticks[1] < want || ticks[1] > want.Add(iv/2) {
		t.Errorf("second epilogue at %v, want ≈%v", ticks[1], want)
	}
	for i := 2; i < 8; i++ {
		if d := ticks[i].Sub(ticks[i-1]); d < iv-iv/10 || d > iv+iv/10 {
			t.Errorf("epilogue period %v between epochs %d and %d, want ≈%v", d, i-1, i, iv)
		}
	}
}

// TestPlaneJobChurn pins membership bookkeeping: jobs removed mid-run drop
// out of the shard lists and the aggregates self-correct.
func TestPlaneJobChurn(t *testing.T) {
	r := newRig(1, Config{Shards: 3, Mode: EventDriven})
	r.addMisc(9)
	r.start()
	r.eng.RunFor(500 * sim.Millisecond)
	jobs := r.ctl.Jobs()
	for i, j := range jobs {
		if i%2 == 0 {
			r.ctl.Remove(j)
		}
	}
	r.eng.RunFor(500 * sim.Millisecond)
	live := 0
	for _, sh := range r.plane.shards {
		for _, e := range sh.list {
			if !e.removed {
				live++
			}
		}
	}
	if want := len(r.ctl.Jobs()); live != want {
		t.Fatalf("%d live entries across shards, want %d", live, want)
	}
	checkLive(t, r.plane)
}
