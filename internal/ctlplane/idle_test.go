package ctlplane

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/progress"
	"repro/internal/rbs"
	"repro/internal/sim"
)

// TestIdleTicksMatchWalks is the differential check for idle ticks: the
// same randomized event-mode machine runs twice, once as built and once
// with every tick forced to walk, and the two runs must log the same
// thing. The log holds every control event as it is emitted and, after
// every tick (or, with the shard threads running, every epoch end), each
// shard's work counts, counters and published aggregates, every entry's
// sampling state in list order, and every job's desire and allocation.
//
// Hand-driven runs tick the shards in a random order, leaving a shard out
// now and then, so ticks run late, twice in one epoch and after entries
// were moved in; their log also names the jobs each tick sampled, in
// order. The machines combine SMP re-homing (work-pull migrations and
// primary-member exits), pooled spawn→exit churn, real-rate pipelines
// whose queues push dirty marks, dropped and delayed actuations, and
// shifting demand that shrinks an idle shard's capacity slice below what
// its jobs hold, so over-commit recovery runs.
func TestIdleTicksMatchWalks(t *testing.T) {
	cases := []struct {
		cpus, shards int
		hand         bool
	}{
		{1, 4, true}, {2, 2, true}, {4, 4, true}, {4, 3, true},
		{1, 4, false}, {4, 4, false},
	}
	var total idleCounts
	for _, c := range cases {
		for seed := int64(1); seed <= 2; seed++ {
			name := fmt.Sprintf("cpus=%d/shards=%d/hand=%v/seed=%d", c.cpus, c.shards, c.hand, seed)
			idle, counts := idleDiffLog(c.cpus, c.shards, c.hand, seed, false)
			walked, _ := idleDiffLog(c.cpus, c.shards, c.hand, seed, true)
			if i, ok := firstDiff(idle, walked); !ok {
				t.Fatalf("%s: idle ticks and forced walks diverge at log line %d:\nidle:   %s\nwalked: %s",
					name, i, lineAt(idle, i), lineAt(walked, i))
			}
			total.add(counts)
			t.Logf("%s: %+v", name, counts)
		}
	}
	// The runs must have exercised every reason an idle tick exists, and
	// every reason one must walk instead.
	switch {
	case total.idle == 0 || total.walks == 0:
		t.Fatalf("idle ticks %d, walks %d: want both", total.idle, total.walks)
	case total.late == 0:
		t.Fatal("no late tick")
	case total.handoffs == 0:
		t.Fatal("no entry re-homed")
	case total.capacity == 0:
		t.Fatal("no tick walked for over-commit recovery alone")
	case total.dirty == 0:
		t.Fatal("no dirty mark woke an otherwise idle shard")
	}
	t.Logf("%+v", total)
}

// idleCounts tallies what one run exercised.
type idleCounts struct {
	idle, walks, late, handoffs uint64
	// capacity counts ticks whose walk only the capacity-slice condition
	// forced; dirty counts ticks whose shard only a dirty mark woke. Both
	// are read before ticks of shards other than shard 0, whose tick runs
	// no prologue in between.
	capacity, dirty int
}

func (c *idleCounts) add(o idleCounts) {
	c.idle += o.idle
	c.walks += o.walks
	c.late += o.late
	c.handoffs += o.handoffs
	c.capacity += o.capacity
	c.dirty += o.dirty
}

func firstDiff(a, b []string) (int, bool) {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return i, false
		}
	}
	return min(len(a), len(b)), len(a) == len(b)
}

func lineAt(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "(end of log)"
}

// idleDiffLog runs one randomized machine and returns its log. forceWalk
// makes every tick walk. hand drives the ticks by hand between slices of
// machine time; otherwise the shard threads tick on their own.
func idleDiffLog(cpus, shards int, hand bool, seed int64, forceWalk bool) ([]string, idleCounts) {
	rng := rand.New(rand.NewSource(seed))
	r := newRig(cpus, Config{Mode: EventDriven, Shards: shards, MaxStaleness: 60 * sim.Millisecond})
	r.plane.forceWalk = forceWalk
	p := r.plane
	var log []string
	r.ctl.Subscribe(core.SinkFunc(func(ev core.Event) { log = append(log, eventLine(ev)) }), ^core.EventKind(0))

	// Pooled churn, wired as the public System wires it: exited threads,
	// their jobs and their rbs state are recycled, and the exit hook tears
	// the controller's state down eagerly.
	r.kern.SetRecycle(true)
	r.policy.SetRecycle(true)
	r.ctl.SetRecycle(true)
	r.kern.SetExitHook(func(th *kernel.Thread, _ sim.Time) {
		r.reg.Unregister(th)
		r.ctl.ThreadExited(th)
	})
	r.ctl.SetFaults(&actuationFaults{})

	// The quiet population: sleepers that never wake, the idle ticks'
	// jobs, and pinned pipelines whose queues push dirty marks and whose
	// producer rates the calm phases change, moving adaptive demand
	// between shards.
	op := kernel.OpSleep{D: 3600 * sim.Second}
	sleeper := kernel.ProgramFunc(func(*kernel.Thread, sim.Time) kernel.Op { return &op })
	for i := 0; i < 16; i++ {
		r.ctl.AddMiscellaneous(r.kern.Spawn("sleeper", sleeper))
	}
	rates := make([]int64, 2)
	for i := range rates {
		rates[i] = 128
		r.addRatePipeline(fmt.Sprintf("pipe%d", i), i%cpus, &rates[i])
	}
	rt, err := r.ctl.AddRealTime(r.kern.SpawnAffinity("rt", cycle(200_000, 10*sim.Millisecond, 0), 0), 50, 10*sim.Millisecond)
	if err != nil {
		panic(err)
	}

	var counts idleCounts
	if hand {
		r.kern.Start()
	} else {
		r.onStep(func(sim.Time) {
			for _, s := range p.shards {
				log = append(log, shardLine(p, s))
			}
			log = append(log, jobsLine(r.ctl))
		})
		r.start()
	}
	iv := r.ctl.Config().Interval
	order := make([]*shard, len(p.shards))
	teams := 0
	for round := 0; round < 240; round++ {
		storm := round%80 < 40
		if round%80 == 0 {
			// A storm opens: pinned duty-cycle hogs keep every CPU busy
			// enough that idle CPUs pull the unpinned wanderers and team
			// members around. All of them exit within the storm.
			for c := 0; c < cpus; c++ {
				r.ctl.AddMiscellaneous(r.kern.SpawnAffinity("hog", cycle(1_600_000, 4*sim.Millisecond, 30), c))
			}
			for i := 0; i < cpus+1; i++ {
				th := r.kern.Spawn(fmt.Sprintf("wanderer%d", i), cycle(600_000, 3*sim.Millisecond, 60))
				r.reg.Register(th, &pulseMetric{})
				r.ctl.AddRealRate(th, 0)
			}
		}
		if !storm {
			// Calm: whole intervals, and now and then a new producer rate.
			r.eng.RunFor(iv)
			if rng.Intn(6) == 0 {
				rates[rng.Intn(len(rates))] = []int64{0, 64, 256, 1024}[rng.Intn(4)]
			}
		} else {
			r.eng.RunFor([]sim.Duration{0, iv / 4, iv, 2 * iv}[rng.Intn(4)])
			switch rng.Intn(10) {
			case 0:
				// A team whose primary member exits first: a primary change.
				teams++
				j := r.ctl.AddMiscellaneous(r.kern.Spawn("lead", cycle(300_000, 2*sim.Millisecond, 2+teams%5)))
				r.ctl.AddMember(j, r.kern.Spawn("crew", cycle(300_000, 5*sim.Millisecond, 40)))
			case 1, 2:
				// A short-lived job: it exits after a few ops, its thread and
				// job objects return to the pools, and the next spawn reuses
				// them.
				r.ctl.AddMiscellaneous(r.kern.Spawn("brief", cycle(200_000, sim.Millisecond, 1+rng.Intn(6))))
			case 3:
				if err := r.ctl.Renegotiate(rt, 30+rng.Intn(5)*10); err != nil {
					panic(err)
				}
			}
		}
		if !hand {
			continue
		}
		copy(order, p.shards)
		if storm {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		now := r.kern.Now()
		for _, s := range order {
			if storm && rng.Intn(8) == 0 {
				continue
			}
			if s.id != 0 {
				counts.count(p, s)
			}
			pre := visitState(s)
			p.tick(s, now)
			log = append(log, sampledLine(p, s, pre), shardLine(p, s), jobsLine(r.ctl))
		}
	}
	for _, s := range p.shards {
		counts.idle += s.ticks - s.walks
		counts.walks += s.walks
		counts.late += s.lateTicks
		counts.handoffs += s.handoffs
	}
	return log, counts
}

// addRatePipeline spawns a producer/consumer pair over one queue, both
// pinned to cpu, and registers the consumer as a real-rate job. The
// producer moves *rate bytes per 5 ms, read at every batch.
func (r *rig) addRatePipeline(name string, cpu int, rate *int64) {
	q := r.kern.NewQueue(name, 1<<16)
	produce := &kernel.OpProduce{Queue: q}
	nap := &kernel.OpSleep{D: 5 * sim.Millisecond}
	var pi int
	prod := r.kern.SpawnAffinity(name+".prod", kernel.ProgramFunc(func(*kernel.Thread, sim.Time) kernel.Op {
		pi++
		if pi%2 == 0 {
			return nap
		}
		produce.Bytes = *rate
		return produce
	}), cpu)
	r.policy.SetReservation(prod, rbs.Reservation{Proportion: 100, Period: 10 * sim.Millisecond})
	consOps := [2]kernel.Op{&kernel.OpConsume{Queue: q, Bytes: 256}, &kernel.OpCompute{Cycles: 40000}}
	var ci int
	cons := r.kern.SpawnAffinity(name+".cons", kernel.ProgramFunc(func(*kernel.Thread, sim.Time) kernel.Op {
		ci++
		return consOps[ci%2]
	}), cpu)
	r.reg.RegisterQueue(cons, q, progress.Consumer)
	r.ctl.AddRealRate(cons, 0)
}

// count classifies the tick s is about to run.
func (c *idleCounts) count(p *Plane, s *shard) {
	shut := p.kern.Migrations() == s.migrations && p.ctl.PrimaryChanges() == s.primaries &&
		p.ctl.OutOfPassWrites() == s.writes
	if p.epoch != s.lastTick+1 || !shut || p.epoch >= s.nextDue {
		return
	}
	over := s.allocAdaptive > p.slice(s.desireRaw)
	if !s.wake && over {
		c.capacity++
	}
	if s.wake && !over {
		// Woken with a dirty mark pending on a watched real-rate job and
		// no entry removed, new or guarded: a dirty mark woke the shard.
		dirty := false
		for _, e := range s.list {
			if e.removed || !e.sampled || e.lastEpoch == p.epoch {
				return
			}
			dirty = dirty || e.dirty && e.realRate && e.watched
		}
		if dirty {
			c.dirty++
		}
	}
}

// entryState is one entry's sampling state just before a tick.
type entryState struct {
	e           *entry
	sampled     bool
	sampleEpoch int64
}

func visitState(s *shard) []entryState {
	out := make([]entryState, 0, len(s.list))
	for _, e := range s.list {
		if !e.removed {
			out = append(out, entryState{e, e.sampled, e.sampleEpoch})
		}
	}
	return out
}

// sampledLine names, in visit order, the jobs the tick just run sampled:
// the entries that were on its list and hold a sample from this epoch they
// did not hold before.
func sampledLine(p *Plane, s *shard, pre []entryState) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tick shard=%d epoch=%d sampled:", s.id, p.epoch)
	for _, st := range pre {
		e := st.e
		if e.job != nil && e.sampled && e.sampleEpoch == p.epoch && !(st.sampled && st.sampleEpoch == p.epoch) {
			fmt.Fprintf(&b, " %d", e.job.Slot())
		}
	}
	return b.String()
}

// shardLine prints a shard's counters, aggregates and entries. lastEpoch
// is left out: an idle tick does not stamp it, and no later decision
// reads a stale value.
func shardLine(p *Plane, s *shard) string {
	var b strings.Builder
	fmt.Fprintf(&b, "shard=%d epoch=%d ticks=%d late=%d last=%d/%d total=%d/%d handoffs=%d live=%d agg=%+v entries:",
		s.id, p.epoch, s.ticks, s.lateTicks, s.lastSampled, s.lastSkipped, s.sampled, s.skipped,
		s.handoffs, s.live, s.aggregates)
	for _, e := range s.list {
		if e.removed {
			fmt.Fprint(&b, " removed")
			continue
		}
		fmt.Fprintf(&b, " %d:%v/%d/%d/%d/%v/%v/%d", e.job.Slot(), e.sampled, e.sampleEpoch,
			e.desired, e.allocated, e.dirty, e.watched, e.shard)
	}
	return b.String()
}

func jobsLine(ctl *core.Controller) string {
	var b strings.Builder
	b.WriteString("jobs:")
	for _, j := range ctl.Jobs() {
		fmt.Fprintf(&b, " %d:%d/%d", j.Slot(), j.Desired(), j.Allocated())
	}
	return b.String()
}

func eventLine(ev core.Event) string {
	slot := -1
	if ev.Job != nil {
		slot = ev.Job.Slot()
	}
	return fmt.Sprintf("event %v t=%v job=%d %d→%d prop=%d period=%v d=%d g=%d c=%d v=%v err=%v",
		ev.Kind, ev.Time, slot, ev.From, ev.To, ev.Prop, ev.Period, ev.Desired, ev.Granted, ev.Capacity, ev.Value, ev.Err)
}
