package ctlplane

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// benchRig builds a warmed plane over n sleepy miscellaneous jobs.
func benchRig(n int, cfg Config) (*rig, sim.Time) {
	r := newRig(1, cfg)
	r.addMisc(n)
	r.start()
	r.eng.RunFor(sim.Second)
	return r, r.kern.Now()
}

// benchRigSMP builds the rrbench plane machine: 8 CPUs with one shard
// each, the modeled controller cost collapsed as in TestSoak1MAdmission,
// and n miscellaneous jobs that sleep for an hour. Every job is homed by
// its CPU through the cpu→shard table, where benchRig's uniprocessor
// hashes thread IDs.
func benchRigSMP(n int, mode Mode) (*rig, sim.Time) {
	r := newRigCfg(8, core.Config{BaseCost: 100, PerJobCost: 1}, Config{Mode: mode, Shards: 8})
	op := kernel.OpSleep{D: sim.Duration(time.Hour)}
	prog := kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op { return &op })
	for i := 0; i < n; i++ {
		r.ctl.AddMiscellaneous(r.kern.Spawn("sleeper", prog))
	}
	r.start()
	r.eng.RunFor(sim.Second)
	return r, r.kern.Now()
}

// runEpoch drives one full control epoch: every shard ticks once.
func runEpoch(r *rig, now sim.Time) {
	for _, s := range r.plane.shards {
		r.plane.tick(s, now)
	}
}

// BenchmarkControllerStep measures one full control epoch across the
// plane's shards.
//
// The shards=1 cases are the zero-value plane, the paper's single global
// sweep (sample, estimate, squish, actuate) at growing job counts. Its
// per-epoch cost is O(n) by design — the controller must look at every
// job — but it must be allocation-free after warm-up.
//
// The 8-shard cases carry the acceptance target: event mode at n=100k
// stays under 2× the per-job cost of n=10k, because steady-state misc jobs
// ride the skip path and only 1/staleness of them are re-sampled per
// epoch. The cpus=8 variants run the rrbench plane machine, where homes
// are CPU-derived.
func BenchmarkControllerStep(b *testing.B) {
	for _, n := range []int{10, 100, 1000, 10_000} {
		b.Run(fmt.Sprintf("shards=1/mode=periodic/n=%d", n), func(b *testing.B) {
			r, now := benchRig(n, Config{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runEpoch(r, now)
			}
		})
	}
	for _, cpus := range []int{1, 8} {
		for _, mode := range []Mode{Periodic, EventDriven} {
			for _, n := range []int{10_000, 100_000} {
				name := fmt.Sprintf("mode=%s/n=%d", mode, n)
				if cpus > 1 {
					name = fmt.Sprintf("cpus=%d/%s", cpus, name)
				}
				b.Run(name, func(b *testing.B) {
					var r *rig
					var now sim.Time
					if cpus > 1 {
						r, now = benchRigSMP(n, mode)
					} else {
						r, now = benchRig(n, Config{Mode: mode, Shards: 8})
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						runEpoch(r, now)
					}
				})
			}
		}
	}
}

// TestEventDrivenPerJobCostScales enforces the acceptance criterion in
// the test suite (the benchmark records the numbers; this keeps the
// property from regressing silently): one event-mode epoch at n=100k
// must cost less than 2× the per-job cost at n=10k.
func TestEventDrivenPerJobCostScales(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Minimum over several small batches: `go test ./...` runs packages
	// concurrently, so any single timing window can be inflated by
	// neighbors — the min is the undisturbed cost.
	perJob := func(n int) float64 {
		r, now := benchRig(n, Config{Mode: EventDriven, Shards: 8})
		const batches, reps = 10, 3
		best := time.Duration(1<<63 - 1)
		for b := 0; b < batches; b++ {
			start := time.Now()
			for i := 0; i < reps; i++ {
				runEpoch(r, now)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return float64(best) / float64(reps) / float64(n)
	}
	small := perJob(10_000)
	big := perJob(100_000)
	if big > 2*small {
		t.Errorf("event-mode per-job epoch cost grew %.2fx from n=10k (%.1fns) to n=100k (%.1fns), want < 2x",
			big/small, small, big)
	}
}

// TestSoak1MAdmission is the scale soak: admit one million miscellaneous
// jobs and run a handful of control epochs under the sharded event-driven
// plane. It exists to prove admission and the per-epoch machinery stay
// tractable at six figures of jobs — the wall time is logged in the test
// output.
func TestSoak1MAdmission(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 1_000_000
	start := time.Now()
	// The modeled Figure 5 cost (2640 cycles/job) is honest about a
	// 400 MHz machine: it cannot visit a million jobs per 10 ms interval.
	// The soak measures the plane's host-side cost, so the modeled cycle
	// cost is collapsed to let epochs complete in simulated time.
	ccfg := core.Config{BaseCost: 100, PerJobCost: 1}
	r := newRigCfg(1, ccfg, Config{Mode: EventDriven, Shards: 8})
	op := kernel.OpSleep{D: sim.Duration(time.Hour)}
	prog := kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op { return &op })
	for i := 0; i < n; i++ {
		r.ctl.AddMiscellaneous(r.kern.Spawn("soak", prog))
	}
	admit := time.Since(start)
	r.start()
	r.eng.RunFor(60 * sim.Millisecond) // ~6 control epochs
	total := time.Since(start)

	if got := len(r.ctl.Jobs()); got != n {
		t.Fatalf("admitted %d jobs, want %d", got, n)
	}
	epochs := r.plane.Epoch()
	if epochs < 5 {
		t.Fatalf("only %d control epochs completed", epochs)
	}
	var sampled, skipped uint64
	for _, st := range r.plane.Stats() {
		sampled += st.Sampled
		skipped += st.Skipped
	}
	t.Logf("soak: %d jobs admitted in %v, %d epochs in %v total (sampled %d, skipped %d)",
		n, admit.Round(time.Millisecond), epochs, total.Round(time.Millisecond), sampled, skipped)
}
