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
	r := newRigCfg(machine(8), core.Config{BaseCost: 100, PerJobCost: 1}, Config{Mode: mode, Shards: 8})
	op := kernel.Sleep(sim.Duration(time.Hour))
	prog := kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op { return op })
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
// plane's shards, every shard walking its list.
//
// The shards=1 cases are the zero-value plane, the paper's single global
// sweep (sample, estimate, squish, actuate) at growing job counts. Its
// per-epoch cost is O(n) by design — the controller must look at every
// job — but it must be allocation-free after warm-up.
//
// The 8-shard cases carry the acceptance target: event mode at n=100k
// stays under 2× the per-job cost of n=10k, because steady-state misc jobs
// ride the skip path and only 1/staleness of them are re-sampled per
// epoch. Back to back, most event-mode epochs would have nothing due and
// skip their walks (DESIGN.md §10.5), so the rigs force every tick to
// walk; BenchmarkIdleEpoch prices the epochs that skip. The cpus=8
// variants run the rrbench plane machine, where homes are CPU-derived.
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
					r.plane.forceWalk = true
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
// must cost less than 2× the per-job cost at n=10k. As in the benchmark,
// every tick walks.
func TestEventDrivenPerJobCostScales(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Minimum over several small batches: `go test ./...` runs packages
	// concurrently, so any single timing window can be inflated by
	// neighbors — the min is the undisturbed cost. The two sizes' batches
	// alternate, so both minima come from the same load windows.
	const batches, reps = 10, 3
	sizes := []int{10_000, 100_000}
	rigs := make([]*rig, len(sizes))
	nows := make([]sim.Time, len(sizes))
	for i, n := range sizes {
		rigs[i], nows[i] = benchRig(n, Config{Mode: EventDriven, Shards: 8})
		rigs[i].plane.forceWalk = true
	}
	best := []time.Duration{1<<63 - 1, 1<<63 - 1}
	for b := 0; b < batches; b++ {
		for i := range sizes {
			start := time.Now()
			for j := 0; j < reps; j++ {
				runEpoch(rigs[i], nows[i])
			}
			best[i] = min(best[i], time.Since(start))
		}
	}
	small := float64(best[0]) / reps / float64(sizes[0])
	big := float64(best[1]) / reps / float64(sizes[1])
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
	r := newRigCfg(machine(1), ccfg, Config{Mode: EventDriven, Shards: 8})
	op := kernel.Sleep(sim.Duration(time.Hour))
	prog := kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op { return op })
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

// TestSweepAllocatesNothing runs whole staleness cycles of the rrbench
// plane machine at n=10k, several sample blocks per shard, and requires
// a cycle, its sweep included, to allocate nothing once the plane has
// warmed up.
func TestSweepAllocatesNothing(t *testing.T) {
	const n = 10_000
	r, _ := benchRigSMP(n, EventDriven)
	cycle := sim.Duration(r.plane.StalenessEpochs()) * r.plane.interval
	sampled := func() uint64 {
		var total uint64
		for _, st := range r.plane.Stats() {
			total += st.Sampled
		}
		return total
	}
	before := sampled()
	if got := testing.AllocsPerRun(3, func() { r.eng.RunFor(cycle) }); got != 0 {
		t.Fatalf("a staleness cycle of %d jobs allocated %.1f objects, want 0", n, got)
	}
	// Four cycles ran (AllocsPerRun adds a warm-up run); each sweeps every
	// job once.
	if got := sampled() - before; got < 4*n {
		t.Fatalf("four staleness cycles sampled %d jobs, want at least %d", got, 4*n)
	}
}

// alignSweep runs whole epochs until the one just run was a staleness
// sweep that sampled all n jobs, so the next sweep comes stalenessEpochs
// epochs later.
func alignSweep(tb testing.TB, r *rig, now sim.Time, n int) {
	tb.Helper()
	for i := int64(0); i <= r.plane.StalenessEpochs(); i++ {
		runEpoch(r, now)
		if sampledLastEpoch(r) == n {
			return
		}
	}
	tb.Fatalf("no epoch within a staleness cycle sampled all %d jobs", n)
}

// sampledLastEpoch sums the shards' sampled counts of their latest tick.
func sampledLastEpoch(r *rig) int {
	total := 0
	for _, s := range r.plane.shards {
		total += s.lastSampled
	}
	return total
}

// BenchmarkStalenessSweep prices the event plane's staleness sweep, the
// epoch in which every idle job on the rrbench plane machine passes its
// staleness bound at once (rrbench plane's epoch_ms_p95). Each iteration
// runs the cycle's skip epochs with the timer stopped and times only the
// sweep; ns/sampled-job is the sweep's cost per job it re-sampled.
func BenchmarkStalenessSweep(b *testing.B) {
	const n = 100_000
	r, now := benchRigSMP(n, EventDriven)
	alignSweep(b, r, now, n)
	skips := int(r.plane.StalenessEpochs()) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < skips; k++ {
			runEpoch(r, now)
		}
		b.StartTimer()
		runEpoch(r, now)
		b.StopTimer()
		if got := sampledLastEpoch(r); got != n {
			b.Fatalf("timed epoch sampled %d jobs, want the sweep's %d", got, n)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/sampled-job")
}

// walks sums the shards' walk counts.
func walks(p *Plane) uint64 {
	var total uint64
	for _, s := range p.shards {
		total += s.walks
	}
	return total
}

// BenchmarkIdleEpoch prices an epoch with nothing due on the rrbench plane
// machine (rrbench plane's epoch_ms_p50): every shard skips its walk. The
// staleness sweep and the epoch after it, in which over-commit recovery
// may walk a shard (TestIdleShardsWalkOnlyWhenDue), run with the timer
// stopped; a timed epoch in which any shard walked fails the benchmark.
func BenchmarkIdleEpoch(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("cpus=8/n=%d", n), func(b *testing.B) {
			r, now := benchRigSMP(n, EventDriven)
			alignSweep(b, r, now, n)
			cycle := int(r.plane.StalenessEpochs())
			pos := 1 // the epoch after the sweep alignSweep ran
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for pos < 2 {
					b.StopTimer()
					runEpoch(r, now)
					pos = (pos + 1) % cycle
					b.StartTimer()
				}
				before := walks(r.plane)
				runEpoch(r, now)
				pos = (pos + 1) % cycle
				if walks(r.plane) != before {
					b.Fatalf("timed epoch %d walked", i)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/epoch")
		})
	}
}

// TestIdleShardsWalkOnlyWhenDue pins what idle ticks buy on the rrbench
// plane machine at n=10k: each shard walks its list exactly once per
// staleness cycle for its sweep, which samples every job it owns. The
// only other walks are over-commit recoveries in the epoch after a sweep,
// which sample nothing: the shards publish the sweep's new demand one
// after another, so a shard that squished against the others' old demand
// can hold more than its slice once they have published.
func TestIdleShardsWalkOnlyWhenDue(t *testing.T) {
	const n, cycles = 10_000, 5
	r, now := benchRigSMP(n, EventDriven)
	alignSweep(t, r, now, n)
	p := r.plane
	sweeps := make([]int, len(p.shards))
	recoveries := 0
	for e := int64(0); e < cycles*p.StalenessEpochs(); e++ {
		for _, s := range p.shards {
			epoch := p.epoch
			if s.id == 0 {
				epoch++
			}
			due := epoch >= s.nextDue
			over := s.allocAdaptive > p.slice(s.desireRaw)
			before := s.walks
			p.tick(s, now)
			switch walked := s.walks != before; {
			case walked && due:
				sweeps[s.id]++
				if s.lastSampled != len(s.list) {
					t.Errorf("epoch %d: shard %d's sweep sampled %d of %d jobs", p.epoch, s.id, s.lastSampled, len(s.list))
				}
			case walked && over && s.lastSampled == 0:
				recoveries++
			case walked:
				t.Errorf("epoch %d: shard %d walked with nothing due and its slice not over-committed", p.epoch, s.id)
			}
		}
	}
	for i, got := range sweeps {
		if got != cycles {
			t.Errorf("shard %d swept %d times in %d staleness cycles, want %d", i, got, cycles, cycles)
		}
	}
	for _, s := range p.shards {
		if s.lateTicks != 0 {
			t.Errorf("shard %d ran %d late ticks", s.id, s.lateTicks)
		}
	}
	t.Logf("%d over-commit recoveries in %d staleness cycles of %d shards", recoveries, cycles, len(p.shards))
}
