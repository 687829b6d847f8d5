package ctlplane

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// installedContract checks what a skipped squish relies on (DESIGN.md
// §10.5) on every shard whose squish record still stands: installed, with
// its membership generation and the out-of-pass write count unchanged
// since. The jobs of the shard's adaptive entries, in list order, must
// hold exactly what squishing them whole at the recorded capacity grants,
// and be marked squished exactly where that grant falls short of the
// desire.
func installedContract(p *Plane) error {
	for _, s := range p.shards {
		if !s.installed || s.gen != s.squishGen || s.squishWrites != p.ctl.OutOfPassWrites() {
			continue
		}
		var jobs []*core.Job
		var desires []int
		var weights []float64
		for _, e := range s.list {
			if e.adaptive {
				jobs = append(jobs, e.job)
				desires = append(desires, e.job.Desired())
				weights = append(weights, e.job.Importance())
			}
		}
		grants := make([]int, len(jobs))
		core.Squish(grants, make([]bool, len(jobs)), desires, weights, s.squishCap)
		for i, j := range jobs {
			if j.Allocated() != grants[i] || j.Squished() != (grants[i] < desires[i]) {
				return fmt.Errorf("shard %d records its whole-list squish at capacity %d as installed, but job %d (entry %d of %d) holds %d, squished=%v, where that squish grants %d of its desire %d",
					s.id, s.squishCap, j.Slot(), i, len(jobs), j.Allocated(), j.Squished(), grants[i], desires[i])
			}
		}
	}
	return nil
}

// TestSteadySweepSkipsSquish pins what a skipped squish buys on the
// rrbench plane machine: once the sleepers' desires have settled, each
// shard's staleness sweep samples its whole list, finds the squish inputs
// of its previous sweep (DESIGN.md §10.5, skipped squish) and skips
// SquishApply, on all 8 shards, in every cycle.
//
// n=10k has no such steady state. Its shards' slices grant each sleeper
// 0–3 ppt, and a job granted nothing reads as fully used (there is no
// grant to measure it against), so about half the desires flip between 20
// and 800 from one sweep to the next and no sweep repeats its inputs.
func TestSteadySweepSkipsSquish(t *testing.T) {
	for _, n := range []int{2_000, 100_000} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			if n > 10_000 && testing.Short() {
				t.Skip("short mode")
			}
			const cycles = 3
			r, now := benchRigSMP(n, EventDriven)
			alignSweep(t, r, now, n)
			p := r.plane
			before := make([]uint64, len(p.shards))
			for i, s := range p.shards {
				before[i] = s.squishSkips
			}
			for e := int64(0); e < cycles*p.StalenessEpochs(); e++ {
				runEpoch(r, now)
			}
			for i, s := range p.shards {
				if got := s.squishSkips - before[i]; got != cycles {
					t.Errorf("shard %d skipped %d squishes in %d staleness cycles, want one a sweep", s.id, got, cycles)
				}
			}
		})
	}
}
