package ctlplane

import (
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// TestShardThreads pins the shard threads' names and CPU affinities on a
// 4-CPU machine. A lone shard is the paper's controller thread: named
// "controller", unpinned when periodic (the kernel places it, as it
// would any thread), pinned to CPU 0 when event-driven. With several
// shards each is "ctl<id>", pinned to CPU id mod CPUs.
func TestShardThreads(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		names    []string
		affinity []int
	}{
		{"lone periodic", Config{}, []string{"controller"}, []int{kernel.AffinityAny}},
		{"lone event", Config{Mode: EventDriven}, []string{"controller"}, []int{0}},
		{"3 periodic", Config{Shards: 3}, []string{"ctl0", "ctl1", "ctl2"}, []int{0, 1, 2}},
		{"5 event", Config{Mode: EventDriven, Shards: 5},
			[]string{"ctl0", "ctl1", "ctl2", "ctl3", "ctl4"}, []int{0, 1, 2, 3, 0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(4, c.cfg)
			r.start()
			threads := r.plane.Threads()
			if len(threads) != len(c.names) {
				t.Fatalf("%d shard threads, want %d", len(threads), len(c.names))
			}
			for i, th := range threads {
				if th.Name() != c.names[i] || th.Affinity() != c.affinity[i] {
					t.Errorf("shard %d: thread %q affinity %d, want %q affinity %d",
						i, th.Name(), th.Affinity(), c.names[i], c.affinity[i])
				}
			}
		})
	}
}

// TestPeriodicChargesLiveJobs pins a periodic shard's modeled cost: the
// compute phase charges BaseCost + PerJobCost for every job the shard owns
// at that moment, as the paper's controller did. A job admitted or removed
// between ticks is charged from the very next compute phase, not one tick
// later when a sample has counted it.
func TestPeriodicChargesLiveJobs(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := newRig(1, Config{Shards: shards})
			r.addMisc(4)
			r.start()
			ccfg := r.ctl.Config()
			iv := ccfg.Interval
			// A shard charges its compute phase as CPU its thread burns, so
			// the cycles charged over a window are that thread's CPU time.
			cpu := make([]sim.Duration, shards)
			mark := func() {
				for i, s := range r.plane.shards {
					cpu[i] = s.thread.CPUTime()
				}
			}
			charged := func() sim.Cycles {
				var c sim.Cycles
				for i, s := range r.plane.shards {
					c += sim.DurationToCycles(s.thread.CPUTime()-cpu[i], kernel.ClockRate)
				}
				return c
			}
			base := ccfg.BaseCost / sim.Cycles(shards) * sim.Cycles(shards)

			// Every shard has ticked at Interval + its stagger offset; the
			// next compute phases begin at 2·Interval.
			r.eng.RunFor(iv + iv*9/10)
			r.addMisc(3)
			r.ctl.Remove(r.ctl.Jobs()[0])
			mark()
			r.eng.RunFor(iv)
			if got, want := charged(), base+6*ccfg.PerJobCost; got != want {
				t.Fatalf("compute phases after admitting 3 and removing 1 of 4 charged %d cycles, want %d", got, want)
			}
			checkLive(t, r.plane)
		})
	}
}

// checkLive asserts that every shard's live count equals the entries on
// its list whose job is still controlled, and that they sum to the
// controller's job count.
func checkLive(t *testing.T, p *Plane) {
	t.Helper()
	total := 0
	for _, s := range p.shards {
		n := 0
		for _, e := range s.list {
			if !e.removed {
				n++
			}
		}
		if s.live != n {
			t.Errorf("shard %d counts %d live jobs, its list holds %d", s.id, s.live, n)
		}
		total += s.live
	}
	if want := len(p.ctl.Jobs()); total != want {
		t.Errorf("shards count %d live jobs, the controller has %d", total, want)
	}
}
