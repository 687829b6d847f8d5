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

// TestIdleTicksMatchWalks is the differential check for idle ticks and
// skipped squishes: the same randomized machine runs three times, once
// as built, once with every tick forced to walk and once with every walk
// forced to run its squish, and the three runs must log the same thing.
// The log holds every control event as it is emitted and, after every
// tick (or, with the shard threads running, every epoch end), each
// shard's work counts, counters and published aggregates, every entry's
// sampling state in list order, and every job's desire, allocation,
// squished flag and usage marks. The as-built run also checks
// installedContract after every tick.
//
// Hand-driven runs of the storm machines tick the shards in a random
// order, leaving a shard out now and then, so ticks run late, twice in
// one epoch and after entries were moved in; every hand-driven log also
// names the jobs each tick sampled, in order. The storm machines combine
// SMP re-homing (work-pull migrations and primary-member exits), pooled
// spawn→exit churn, real-rate pipelines whose queues push dirty marks,
// dropped and delayed actuations, and shifting demand that shrinks an
// idle shard's capacity slice below what its jobs hold, so over-commit
// recovery runs. The quiet machines (see idleMachine) hold still enough
// that most sweeps skip their squish.
func TestIdleTicksMatchWalks(t *testing.T) {
	cases := []idleMachine{
		{cpus: 1, shards: 4, hand: true}, {cpus: 2, shards: 2, hand: true},
		{cpus: 4, shards: 4, hand: true}, {cpus: 4, shards: 3, hand: true},
		{cpus: 1, shards: 4}, {cpus: 4, shards: 4},
		{cpus: 1, shards: 4, hand: true, quiet: true}, {cpus: 4, shards: 4, hand: true, quiet: true},
		{cpus: 2, shards: 2, quiet: true},
		{cpus: 1, shards: 4, hand: true, quiet: true, periodic: true}, {cpus: 2, shards: 2, quiet: true, periodic: true},
	}
	var total idleCounts
	for _, c := range cases {
		for seed := int64(1); seed <= 2; seed++ {
			m := c
			m.seed = seed
			name := fmt.Sprintf("cpus=%d/shards=%d/hand=%v/quiet=%v/periodic=%v/seed=%d", m.cpus, m.shards, m.hand, m.quiet, m.periodic, seed)
			idle, counts, err := m.log()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			m.forceWalk = true
			walked, _, _ := m.log()
			if i, ok := firstDiff(idle, walked); !ok {
				t.Fatalf("%s: idle ticks and forced walks diverge at log line %d:\nidle:   %s\nwalked: %s",
					name, i, lineAt(idle, i), lineAt(walked, i))
			}
			m.forceWalk, m.forceSquish = false, true
			squished, _, _ := m.log()
			if i, ok := firstDiff(idle, squished); !ok {
				t.Fatalf("%s: skipped and forced squishes diverge at log line %d:\nskipped: %s\nforced:  %s",
					name, i, lineAt(idle, i), lineAt(squished, i))
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
	case total.squishSkips == 0:
		t.Fatal("no walk skipped its squish")
	}
	t.Logf("%+v", total)
}

// idleCounts tallies what one run exercised.
type idleCounts struct {
	idle, walks, late, handoffs, squishSkips uint64
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
	c.squishSkips += o.squishSkips
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

// idleMachine is one randomized machine of TestIdleTicksMatchWalks. hand
// drives the ticks by hand between slices of machine time; otherwise the
// shard threads tick on their own. forceWalk makes every tick walk;
// forceSquish makes every walk run its squish.
//
// By default it is a storm machine: real-rate pipelines, and storms of
// churn and migration between calm phases. A quiet machine is built for
// skipped squishes: no storm, every job admitted before the first tick,
// so each shard samples its whole list in one sweep. Mostly idle
// real-time jobs reserve most of every CPU, so the busy workers' demand
// dwarfs the capacity left to adaptive jobs, and a small job more or less
// in a shard's list, or a small change of one desire, rarely moves the
// shard's capacity slice, as at 100k jobs. Teams whose leads exit move
// between shards by primary change, a dabbler's desire moves at every
// sample, a saturated real-rate job holds its desire while its quality
// streak runs, and the calm rounds re-weight workers and renegotiate a
// real-time job. periodic runs the plane in periodic mode, where every
// tick is a sweep.
type idleMachine struct {
	cpus, shards           int
	hand, quiet, periodic  bool
	seed                   int64
	forceWalk, forceSquish bool
}

// log runs the machine and returns its log and the first breach of
// installedContract, which it checks after every tick (with the shard
// threads running, at every epoch end).
func (m idleMachine) log() ([]string, idleCounts, error) {
	cpus, hand, quiet := m.cpus, m.hand, m.quiet
	rng := rand.New(rand.NewSource(m.seed))
	mode := EventDriven
	if m.periodic {
		mode = Periodic
	}
	// Pooled churn, wired as the public System wires it: exited threads,
	// their jobs and their rbs state are recycled, and the controller tears
	// an exited thread down at its exit.
	kcfg := machine(cpus)
	kcfg.Recycle = true
	r := newRigCfg(kcfg, core.Config{Faults: &actuationFaults{}},
		Config{Mode: mode, Shards: m.shards, MaxStaleness: 60 * sim.Millisecond})
	r.plane.forceWalk, r.plane.forceSquish = m.forceWalk, m.forceSquish
	p := r.plane
	var log []string
	r.ctl.Subscribe(core.SinkFunc(func(ev core.Event) { log = append(log, eventLine(ev)) }), ^core.EventKind(0))

	// The standing population: sleepers that never wake, the idle ticks'
	// jobs, and, in a storm machine, pinned pipelines whose queues push
	// dirty marks and whose producer rates the calm phases change, moving
	// adaptive demand between shards.
	op := kernel.Sleep(3600 * sim.Second)
	sleeper := kernel.ProgramFunc(func(*kernel.Thread, sim.Time) kernel.Op { return op })
	for i := 0; i < 16; i++ {
		r.ctl.AddMiscellaneous(r.kern.Spawn("sleeper", sleeper))
	}
	// Busy workers pinned round the CPUs, one per CPU in a storm machine
	// and twelve in a quiet one: miscellaneous jobs that use all they are
	// granted, so their desire holds at the constant target while their CPU
	// time and block counts move between samples.
	nworkers, reserves := cpus, 0
	if quiet {
		nworkers, reserves = 12*cpus, cpus
	}
	workers := make([]*core.Job, nworkers)
	for i := range workers {
		workers[i] = r.ctl.AddMiscellaneous(r.kern.SpawnAffinity("worker", cycle(2_000_000, 100*sim.Microsecond, 0), i%cpus))
	}
	if quiet {
		// Interactive teams of two sleepers, desiring the 5 ppt floor; each
		// lead exits at a random time, and its crew becomes the primary.
		for i := 0; i < 24; i++ {
			lead := r.kern.Spawn("lead", napThenExit(sim.Duration(100+rng.Intn(2200))*sim.Millisecond))
			r.ctl.AddMember(r.ctl.AddInteractive(lead), r.kern.Spawn("crew", sleeper))
		}
		// The dabbler's bursts cycle through five sizes, so the CPU it uses
		// from one sample to the next, and with it the desire of a job that
		// uses less than it is granted, moves at every sample. Its weight
		// lets it keep its desire in the squish.
		var bursts int
		nap := kernel.Sleep(10 * sim.Millisecond)
		dabbler := r.ctl.AddMiscellaneous(r.kern.SpawnAffinity("dabbler", kernel.ProgramFunc(func(*kernel.Thread, sim.Time) kernel.Op {
			bursts++
			if bursts%2 == 0 {
				return nap
			}
			return kernel.Compute(sim.Cycles(4_000 * (1 + bursts%5)))
		}), 0))
		r.ctl.SetImportance(dabbler, 1000)
		hungry := r.kern.SpawnAffinity("hungry", cycle(2_000_000, 100*sim.Microsecond, 0), cpus-1)
		r.reg.Register(hungry, saturated{})
		r.ctl.AddRealRate(hungry, 0)
	}
	rates := make([]int64, 2)
	for i := range rates {
		rates[i] = 128
		if !quiet {
			r.addRatePipeline(fmt.Sprintf("pipe%d", i), i%cpus, &rates[i])
		}
	}
	rt, err := r.ctl.AddRealTime(r.kern.SpawnAffinity("rt", cycle(200_000, 10*sim.Millisecond, 0), 0), 50, 10*sim.Millisecond)
	if err != nil {
		panic(err)
	}
	for c := 0; c < reserves; c++ {
		if _, err := r.ctl.AddRealTime(r.kern.SpawnAffinity("reserve", cycle(200_000, 10*sim.Millisecond, 0), c), 550, 10*sim.Millisecond); err != nil {
			panic(err)
		}
	}

	var counts idleCounts
	var breach error
	check := func() {
		if breach == nil {
			breach = installedContract(p)
		}
	}
	if hand {
		r.kern.Start()
	} else {
		r.onStep(func(sim.Time) {
			for _, s := range p.shards {
				log = append(log, shardLine(p, s))
			}
			log = append(log, jobsLine(r.ctl))
			check()
		})
		r.start()
	}
	iv := r.ctl.Config().Interval
	order := make([]*shard, len(p.shards))
	teams := 0
	for round := 0; round < 240; round++ {
		storm := !quiet && round%80 < 40
		if storm && round%80 == 0 {
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
			// Calm: whole intervals, and now and then a new producer rate, a
			// re-weighted worker or, in the quiet machine, a new reservation,
			// which moves every capacity slice while the desires hold still.
			r.eng.RunFor(iv)
			switch rng.Intn(24) {
			case 0, 1, 2, 3:
				rates[rng.Intn(len(rates))] = []int64{0, 64, 256, 1024}[rng.Intn(4)]
			case 4:
				r.ctl.SetImportance(workers[rng.Intn(len(workers))], float64(1+rng.Intn(3)))
			case 5:
				if quiet {
					if err := r.ctl.Renegotiate(rt, 30+rng.Intn(5)*10); err != nil {
						panic(err)
					}
				}
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
			if s.id != 0 && !m.periodic {
				counts.count(p, s)
			}
			pre := visitState(s)
			p.tick(s, now)
			log = append(log, sampledLine(p, s, pre), shardLine(p, s), jobsLine(r.ctl))
			check()
		}
	}
	for _, s := range p.shards {
		counts.idle += s.ticks - s.walks
		counts.walks += s.walks
		counts.late += s.lateTicks
		counts.handoffs += s.handoffs
		counts.squishSkips += s.squishSkips
	}
	return log, counts, breach
}

// saturated is a progress metric pinned at full pressure: its job's
// desire winds up to the cap and stays there.
type saturated struct{}

func (saturated) Pressure(sim.Time) float64 { return 0.5 }
func (saturated) Describe() string          { return "saturated" }

// napThenExit returns a program that sleeps for d and exits.
func napThenExit(d sim.Duration) kernel.Program {
	nap, exit := kernel.Sleep(d), kernel.Exit()
	napped := false
	return kernel.ProgramFunc(func(*kernel.Thread, sim.Time) kernel.Op {
		if napped {
			return exit
		}
		napped = true
		return nap
	})
}

// addRatePipeline spawns a producer/consumer pair over one queue, both
// pinned to cpu, and registers the consumer as a real-rate job. The
// producer moves *rate bytes per 5 ms, read at every batch.
func (r *rig) addRatePipeline(name string, cpu int, rate *int64) {
	q := r.kern.NewQueue(name, 1<<16)
	nap := kernel.Sleep(5 * sim.Millisecond)
	var pi int
	prod := r.kern.SpawnAffinity(name+".prod", kernel.ProgramFunc(func(*kernel.Thread, sim.Time) kernel.Op {
		pi++
		if pi%2 == 0 {
			return nap
		}
		return kernel.Produce(q, *rate)
	}), cpu)
	r.policy.SetReservation(prod, rbs.Reservation{Proportion: 100, Period: 10 * sim.Millisecond})
	consOps := [2]kernel.Op{kernel.Consume(q, 256), kernel.Compute(40000)}
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
		cpu, blocked := j.UsageMarks()
		fmt.Fprintf(&b, " %d:%d/%d/%v/%d/%d", j.Slot(), j.Desired(), j.Allocated(), j.Squished(), cpu, blocked)
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
