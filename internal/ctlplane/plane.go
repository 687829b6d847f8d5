// Package ctlplane drives the feedback controller; nothing else runs the
// control loop. Its zero-value Config is the paper's prototype, one
// periodic shard that walks every job each interval (Figure 5's cost
// model: BaseCost + PerJobCost·n cycles). At 100k–1M jobs that walk
// dominates the machine, so the plane can split it three ways:
//
//   - Sharding: each of S shards owns the jobs resident on its CPU
//     (thread-ID hashed on a uniprocessor) and runs pass 1 and pass 2
//     over only its own list. Global state — total adaptive demand, the
//     governor's saturation signals — is reconciled through small
//     per-shard aggregates republished at every shard tick.
//
//   - Staggering: shard s ticks at offset s·Interval/S inside the 10 ms
//     interval, so control work is spread across the interval instead of
//     arriving as one burst that preempts the workload.
//
//   - Event-driven sampling: in EventDriven mode the progress registry
//     pushes dirty marks on queue-fill changes, and a shard re-samples a
//     job only when its signal moved by at least Threshold since the last
//     sample, or when the MaxStaleness bound elapsed. A shard with nothing
//     due skips its walk, so an epoch with nothing due costs O(shards);
//     idle jobs' estimators integrate over the skipped epochs on the next
//     sample, so allocations converge to what the periodic sweep would
//     have computed.
//
// In either mode, a walk whose squish would repeat the shard's previous
// whole-list squish, input for input, skips it: the grants are already
// installed.
//
// The whole simulation is single-threaded (shard "threads" are simulated
// kernel threads serialized by the engine), so the plane shares one set
// of scratch buffers across shards and needs no locking.
package ctlplane

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/progress"
	"repro/internal/rbs"
	"repro/internal/sim"
)

// Mode selects how the plane decides which jobs to re-sample each epoch.
type Mode int

const (
	// Periodic re-samples every job every epoch — the paper's sweep,
	// merely sharded and staggered.
	Periodic Mode = iota
	// EventDriven re-samples a job only when its progress signal moved
	// past the threshold or its staleness bound elapsed.
	EventDriven
)

func (m Mode) String() string {
	if m == EventDriven {
		return "event"
	}
	return "periodic"
}

// Config parameterizes the plane.
type Config struct {
	// Mode selects periodic or event-driven sampling.
	Mode Mode
	// Shards is the number of shard threads (clamped to [1, 64]).
	// Zero means one.
	Shards int
	// Threshold is the raw-pressure delta that makes a dirty signal worth
	// re-sampling in EventDriven mode. Zero means 0.05 (5% of a queue).
	Threshold float64
	// MaxStaleness bounds how long any job can go un-sampled in
	// EventDriven mode. Zero means 10 control intervals.
	MaxStaleness sim.Duration
}

// entry is the plane's per-job control state. A skipped visit reads this
// entry and nothing else (DESIGN.md §10.5), so it carries copies of the
// job state the walk aggregates. It fills one 64-byte cache line, and the
// slab hands entries out line-aligned (TestEntryFitsCacheLine).
type entry struct {
	job *core.Job
	// freeNext links the object into the plane's free list while pooled.
	freeNext *entry
	// shard is the entry's current home shard.
	shard int
	// lastEpoch guards exactly-once sampling: the epoch in which some
	// shard last visited this entry. A job re-homed mid-epoch onto a
	// shard that has not ticked yet carries the mark that stops the
	// second visit.
	lastEpoch int64
	// sampleEpoch is the epoch of the last actual sample; epoch −
	// sampleEpoch is the gap the estimators integrate over.
	sampleEpoch int64
	// desired and allocated cache the job's Desired and Allocated. They
	// are reloaded after the plane's own SampleJob and SquishApply, and
	// by every visit of a tick whose out-of-pass write gate is open.
	desired, allocated int
	// adaptive and realRate cache the job's class, fixed at admission.
	adaptive, realRate bool
	// sampled reports whether the job has ever been sampled.
	sampled bool
	// dirty is the push half: a watched metric announced a change since
	// the last sample.
	dirty bool
	// watched reports whether every progress metric the job registered is
	// watchable — i.e. whether dirty marks see all of its signal edges.
	// Refreshed at every sample of a real-rate job; no other class reads
	// it.
	watched bool
	removed bool
}

// load copies the job's desire and allocation into the entry.
func (e *entry) load() {
	e.desired, e.allocated = e.job.Desired(), e.job.Allocated()
}

// shard is one slice of the control plane: a list of owned entries, a
// simulated thread that ticks once per interval at this shard's stagger
// offset, and the aggregates republished at every tick.
type shard struct {
	id     int
	thread *kernel.Thread

	list []*entry

	phase    int
	nextWake sim.Time

	// Published aggregates, refreshed at every tick of this shard; other
	// shards read the latest published value (an epoch-versioned
	// aggregate — at most one epoch stale).
	aggregates

	// live counts the entries homed here whose job is still controlled.
	// A periodic tick samples every one of them, so the compute phase
	// charges PerJobCost for this count as it stands at that moment.
	live int

	// Work counts from the previous tick size the modeled compute cost of
	// the next one in EventDriven mode, where they differ from live.
	lastSampled int
	lastSkipped int

	// The gate counters as this shard last read them, at the start of its
	// previous tick: the kernel's migration count and the controller's
	// primary-change count (re-homing) and out-of-pass write count (cache
	// refresh). While they stand still the walk skips both.
	migrations, primaries, writes uint64

	// Idle-tick state (DESIGN.md §10.5). lastTick is the epoch of the
	// shard's previous tick. nextDue is the first epoch in which an entry
	// its last walk visited passes the staleness bound. wake is set by
	// every change its last walk did not see: an entry added, removed,
	// marked dirty or moved in, or a walk that moved an entry out or hit
	// the lastEpoch guard.
	lastTick, nextDue int64
	wake              bool
	// idleEpoch and idleLen record the shard's latest idle tick: its epoch
	// and how many entries were on the list. A walk in its place would
	// have stamped those entries' lastEpoch, so the next walk in the same
	// epoch (a late tick) stamps them first; a list grows only at its end
	// between walks.
	idleEpoch int64
	idleLen   int

	// Skipped-squish state (DESIGN.md §10.5). gen counts changes to the
	// list's membership: an entry added, removed, or moved in or out. The
	// squish fields hold the inputs of the shard's latest squish over its
	// whole adaptive list, every entry sampled by that walk: the
	// generation, the capacity and the out-of-pass write count. They
	// describe the grants installed on the list's jobs while installed
	// holds; any other squish clears it.
	gen                     uint64
	squishGen, squishWrites uint64
	squishCap               int
	installed               bool

	// stats
	ticks     uint64
	sampled   uint64
	skipped   uint64
	handoffs  uint64
	lateTicks uint64
	// walks counts the ticks that walked the list; squishSkips, the walks
	// that skipped an unchanged squish.
	walks       uint64
	squishSkips uint64
}

// Plane drives one core.Controller through sharded, staggered, optionally
// event-driven control epochs.
type Plane struct {
	ctl    *core.Controller
	kern   *kernel.Kernel
	policy *rbs.Policy
	reg    *progress.Registry
	cfg    Config

	interval        sim.Duration
	stalenessEpochs int64
	threshold       float64

	shards []*shard
	// cpuShard maps a CPU to the shard homed on it; nil on a uniprocessor,
	// where homes hash the thread ID instead.
	cpuShard []int
	// entryAt maps a job's slot (core.Job.Slot) to its live entry, nil
	// once the job is removed; cleared at jobRemoved, before the
	// controller can reissue the job object.
	entryAt []*entry
	epoch   int64

	// scratch buffers shared across shards — safe because shard ticks are
	// serialized by the simulation. squishEnt holds the entries of the
	// squishable jobs, index for index, so the post-squish refresh needs
	// no lookup. The decide walk fills the pair with every due entry and
	// job; the sample pass compacts them to the squishable ones, so the
	// due set needs no buffer of its own.
	squishable []*core.Job
	squishEnt  []*entry
	desires    []int
	weights    []float64
	moves      []*entry
	// adaptiveScratch collects every adaptive entry visited in an
	// event-mode tick, so an over-committed shard can squish its whole
	// list.
	adaptiveScratch []*entry

	// entSlab backs new entry allocation; freeEnt heads the free list of
	// dropped ones. An entry lives in exactly one shard list, is marked
	// removed at jobRemoved, and returns to the pool when its owning
	// shard's keep-loop drops it — the only point where it provably leaves
	// every reference.
	entSlab []entry
	freeEnt *entry
	// carved counts the entries handed out from slab chunks so far.
	carved int

	started bool
	// forceWalk makes every tick walk its list, for tests that check idle
	// ticks against walks or time the walk itself. forceSquish makes every
	// walk run its squish, for tests that check skipped squishes against
	// run ones.
	forceWalk, forceSquish bool
}

// New wires a plane to a controller and claims its job-change hooks. In
// EventDriven mode the registry's dirty hook is claimed by the plane too.
// Start spawns the shard threads.
func New(ctl *core.Controller, kern *kernel.Kernel, policy *rbs.Policy, reg *progress.Registry, cfg Config) *Plane {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > 64 {
		cfg.Shards = 64
	}
	ccfg := ctl.Config()
	if cfg.Threshold <= 0 {
		cfg.Threshold = 0.05
	}
	if cfg.MaxStaleness <= 0 {
		cfg.MaxStaleness = 10 * ccfg.Interval
	}
	p := &Plane{
		ctl:       ctl,
		kern:      kern,
		policy:    policy,
		reg:       reg,
		cfg:       cfg,
		interval:  ccfg.Interval,
		threshold: cfg.Threshold,
	}
	p.stalenessEpochs = (int64(cfg.MaxStaleness) + int64(ccfg.Interval) - 1) / int64(ccfg.Interval)
	if p.stalenessEpochs < 1 {
		p.stalenessEpochs = 1
	}
	for s := 0; s < cfg.Shards; s++ {
		p.shards = append(p.shards, &shard{id: s})
	}
	if ncpu := kern.NumCPUs(); ncpu > 1 {
		p.cpuShard = make([]int, ncpu)
		for c := range p.cpuShard {
			p.cpuShard[c] = c % cfg.Shards
		}
	}
	ctl.Subscribe(core.SinkFunc(p.jobChanged), core.EventJobAdded|core.EventJobRemoved)
	for _, j := range ctl.Jobs() {
		p.jobAdded(j)
	}
	if cfg.Mode == EventDriven {
		reg.SetDirtyHook(p.markDirty)
	}
	return p
}

// Start spawns the shard threads. The shards split the controller's
// reservation (the last shard takes the remainder, so the admitted total
// is the configured reservation whatever the shard count) and stagger
// their first wakes across the control interval: shard s first ticks at
// Start+Interval + s·Interval/S.
func (p *Plane) Start() {
	if p.started {
		panic("ctlplane: plane started twice")
	}
	p.started = true
	res := p.ctl.Config().Reservation
	n := len(p.shards)
	each := res.Proportion / n
	now := p.kern.Now()
	for _, s := range p.shards {
		prop := each
		if s.id == n-1 {
			prop = res.Proportion - each*(n-1)
		}
		if prop < 1 {
			prop = 1
		}
		name, affinity := p.threadSpec(s)
		s.thread = p.kern.SpawnAffinity(name, kernel.ProgramFunc(p.programOf(s)), affinity)
		if err := p.policy.SetReservation(s.thread, rbs.Reservation{Proportion: prop, Period: res.Period}); err != nil {
			panic(fmt.Sprintf("ctlplane: shard %d reservation: %v", s.id, err))
		}
		p.ctl.AdmitOverhead(prop)
		s.nextWake = now.Add(p.interval).Add(sim.Duration(int64(p.interval) * int64(s.id) / int64(n)))
		s.lastSampled = len(s.list)
	}
}

// threadSpec names a shard's thread and picks its CPU affinity.
//
// A lone shard is the paper's controller thread and is named "controller";
// with several, each is "ctl<id>", pinned to CPU id mod CPUs so its
// control work lands where its jobs run. A lone periodic shard is spawned
// unpinned, as the prototype's controller was: on SMP the kernel places
// it and work-pull may move it, and pinning it to CPU 0 would change the
// machine's schedule. A lone event shard stays pinned to CPU 0, the home
// the event plane has always given it — the configuration the sessions
// workload and the SLO sweeps run.
func (p *Plane) threadSpec(s *shard) (name string, affinity int) {
	if len(p.shards) > 1 {
		return fmt.Sprintf("ctl%d", s.id), s.id % p.kern.NumCPUs()
	}
	if p.cfg.Mode == Periodic {
		return "controller", kernel.AffinityAny
	}
	return "controller", 0
}

// programOf builds one shard's thread program: burn the modeled cost,
// tick, sleep to the next staggered wake, with the per-interval cost split
// across shards.
func (p *Plane) programOf(s *shard) func(t *kernel.Thread, now sim.Time) kernel.Op {
	ccfg := p.ctl.Config()
	base := ccfg.BaseCost / sim.Cycles(len(p.shards))
	return func(t *kernel.Thread, now sim.Time) kernel.Op {
		s.phase++
		if s.phase%2 == 1 {
			// The base bookkeeping is split evenly. A periodic tick samples
			// every live job it owns; an event tick charges full freight for
			// last tick's sampled jobs and 1/8 for its skip-path compares.
			work := sim.Cycles(s.live)
			if p.cfg.Mode == EventDriven {
				work = sim.Cycles(s.lastSampled) + sim.Cycles(s.lastSkipped)/8
			}
			return kernel.Compute(base + work*ccfg.PerJobCost)
		}
		p.tick(s, now)
		wake := s.nextWake
		s.nextWake = s.nextWake.Add(p.interval)
		return kernel.SleepUntil(wake)
	}
}

// homeOf returns the shard a job's primary thread is resident on: its CPU
// on a multiprocessor, a thread-ID hash on a uniprocessor.
func (p *Plane) homeOf(j *core.Job) int {
	t := j.Thread()
	if p.cpuShard != nil {
		return p.cpuShard[t.CPU()]
	}
	return t.ID() % len(p.shards)
}

// entrySlabSize is how many entries one slab chunk holds once a plane has
// carved its first entrySlabSize entries. At 64 bytes an entry, a chunk is
// 64 KiB: a large object, which the Go allocator starts on a page boundary
// with no type header in front. Before that, chunks hold entrySmallChunk
// entries: 512 bytes, the largest small size class that carries no malloc
// header, whose objects sit at multiples of 512 within their span. Either
// way every entry lies on exactly one cache line (TestEntryFitsCacheLine),
// and a machine with a handful of jobs does not pay for 64 KiB.
const (
	entrySlabSize   = 1024
	entrySmallChunk = 8
)

// allocEntry returns a zeroed entry from the free pool or the slab.
func (p *Plane) allocEntry() *entry {
	if e := p.freeEnt; e != nil {
		p.freeEnt = e.freeNext
		*e = entry{}
		return e
	}
	if len(p.entSlab) == 0 {
		n := entrySlabSize
		if p.carved < entrySlabSize {
			n = entrySmallChunk
		}
		p.entSlab = make([]entry, n)
		p.carved += n
	}
	e := &p.entSlab[0]
	p.entSlab = p.entSlab[1:]
	return e
}

// jobChanged keeps the shard job lists in step with the controller's
// membership events.
func (p *Plane) jobChanged(ev core.Event) {
	if ev.Kind == core.EventJobAdded {
		p.jobAdded(ev.Job)
	} else {
		p.jobRemoved(ev.Job)
	}
}

// jobAdded registers a plane entry for a newly admitted job on its home
// shard. lastEpoch 0 makes the home shard visit it at its next tick, and
// an unsampled entry is always sampled there, which loads its cache.
func (p *Plane) jobAdded(j *core.Job) {
	e := p.allocEntry()
	e.job = j
	e.shard = p.homeOf(j)
	class := j.Class()
	e.adaptive, e.realRate = class.Adaptive(), class == core.RealRate
	p.entryAt = kernel.GrowSlots(p.entryAt, j.Slot())
	p.entryAt[j.Slot()] = e
	sh := p.shards[e.shard]
	sh.list = append(sh.list, e)
	sh.live++
	sh.gen++
	sh.wake = true
}

// jobRemoved marks the entry dead; the owning shard drops it at its next
// visit. The aggregates self-correct at the same tick.
func (p *Plane) jobRemoved(j *core.Job) {
	if e := p.entryOf(j); e != nil {
		e.removed = true
		sh := p.shards[e.shard]
		sh.live--
		sh.gen++
		sh.wake = true
		p.entryAt[j.Slot()] = nil
	}
}

// entryOf returns the live entry of j, or nil.
func (p *Plane) entryOf(j *core.Job) *entry {
	if s := j.Slot(); s < len(p.entryAt) {
		return p.entryAt[s]
	}
	return nil
}

// CheckSlots verifies the slot-indexed entry table against the
// controller's job list: every controlled job must map to a live entry
// naming it, and no other slot may hold an entry. An entry left behind
// by a removed job is reported. Leak tests call it after churn storms.
func (p *Plane) CheckSlots() error {
	jobs := p.ctl.Jobs()
	for _, j := range jobs {
		if e := p.entryOf(j); e == nil || e.job != j || e.removed {
			return fmt.Errorf("ctlplane: job slot %d does not hold the job's live entry", j.Slot())
		}
	}
	n := 0
	for _, e := range p.entryAt {
		if e != nil {
			n++
		}
	}
	if n != len(jobs) {
		return fmt.Errorf("ctlplane: %d slots hold an entry, but the controller has %d jobs", n, len(jobs))
	}
	return nil
}

// markDirty is the registry's dirty hook: a watched metric of one of the
// thread's job's signals moved.
func (p *Plane) markDirty(t *kernel.Thread) {
	j, ok := p.ctl.JobOf(t)
	if !ok {
		return
	}
	if e := p.entryOf(j); e != nil {
		e.dirty = true
		p.shards[e.shard].wake = true
	}
}

// watchedOf reports whether dirty marks cover all of the job's progress
// signals: at least one member registered metrics and every registered
// metric is watchable.
func (p *Plane) watchedOf(j *core.Job) bool {
	any := false
	for _, t := range j.Members() {
		if !p.reg.HasMetrics(t) {
			continue
		}
		any = true
		if !p.reg.Watched(t) {
			return false
		}
	}
	return any
}

// shouldSample decides whether an event-mode shard visit re-samples the
// job this epoch (periodic mode always samples). It samples never-sampled
// jobs, jobs past the staleness bound, and watched real-rate jobs whose
// dirty signal moved at least Threshold from the last sampled raw
// pressure; everything else (quiet watched jobs, unwatched or
// metric-less classes inside the bound) is skipped.
func (p *Plane) shouldSample(e *entry, now sim.Time) bool {
	if !e.sampled {
		return true
	}
	if p.epoch-e.sampleEpoch >= p.stalenessEpochs {
		return true
	}
	if e.realRate && e.watched {
		if !e.dirty {
			return false
		}
		raw := p.ctl.PeekPressure(e.job, now)
		d := raw - e.job.RawPressure()
		if d < 0 {
			d = -d
		}
		if d >= p.threshold {
			return true
		}
		e.dirty = false
	}
	return false
}

// tick runs one shard's slice of a control epoch.
//
// Shard 0's tick opens the epoch (prologue: step count, miss reaction,
// delayed actuations); the last shard's tick closes it (epilogue:
// governor observation over the summed aggregates). In between, the shard
// walks its list, or, in event mode with nothing due, skips the walk: an
// idle tick (DESIGN.md §10.5) publishes what a walk that sampled nothing
// would.
func (p *Plane) tick(s *shard, now sim.Time) {
	if s.id == 0 {
		p.epoch++
		p.ctl.EpochPrologue(now)
	}
	// A tick whose epoch does not directly follow its previous tick's is
	// late: shard 0 opened two epochs or more since, or none. That is the
	// plane's overrun signal, and such a tick always walks.
	onTime := p.epoch == s.lastTick+1
	if !onTime && s.ticks > 0 {
		s.lateTicks++
	}
	s.ticks++
	s.lastTick = p.epoch

	// The gates, read before the walk: a migration, primary change or
	// out-of-pass write made during this tick (its own squish can set one
	// off) moves a counter past what this shard saw and re-opens the gate
	// at its next tick. While a gate stays shut, every entry on the list is
	// already on its home shard, and every cache equals its job.
	migrations, primaries, writes := p.kern.Migrations(), p.ctl.PrimaryChanges(), p.ctl.OutOfPassWrites()
	rehome := migrations != s.migrations || primaries != s.primaries
	refresh := writes != s.writes
	s.migrations, s.primaries, s.writes = migrations, primaries, writes

	if onTime && !rehome && !refresh && p.idle(s) {
		s.idleEpoch, s.idleLen = p.epoch, len(s.list)
		s.lastSampled, s.lastSkipped = 0, len(s.list)
		s.skipped += uint64(len(s.list))
	} else {
		p.walk(s, now, rehome, refresh)
	}

	if s.id == len(p.shards)-1 {
		var dsum, gsum int
		for _, o := range p.shards {
			dsum += o.govDesire
			gsum += o.govGranted
		}
		p.ctl.EpochEpilogue(now, dsum, gsum)
	}
}

// idle reports whether an event-mode tick of s, on time and with its gates
// shut, may skip its walk: nothing woke the shard, no entry its last walk
// visited is due, and its adaptive jobs hold no more than its capacity
// slice, so over-commit recovery has nothing to squish.
func (p *Plane) idle(s *shard) bool {
	return p.cfg.Mode == EventDriven && !p.forceWalk && !s.wake &&
		p.epoch < s.nextDue && s.allocAdaptive <= p.slice(s.desireRaw)
}

// slice returns the share of the capacity left to adaptive jobs that
// adaptive demand desireRaw earns against every shard's published demand.
// With no floors binding, the global squish scales every desire by
// capacity/demand, so demand-proportional slices reproduce the global
// allocation in steady state.
func (p *Plane) slice(desireRaw int) int {
	capacity := p.ctl.EffectiveThreshold() - p.ctl.Admitted()
	if capacity < 0 {
		capacity = 0
	}
	var dTotal int
	for _, o := range p.shards {
		dTotal += o.desireRaw
	}
	if dTotal <= 0 {
		return capacity / len(p.shards)
	}
	return int(int64(capacity) * int64(desireRaw) / int64(dTotal))
}

// walk visits the shard's list exactly once, in two passes. The decide
// walk drops dead entries, re-homes migrated ones (collected during the
// walk, applied after — the lastEpoch guard keeps a re-homed job from
// being visited twice in one epoch) and decides whether to re-sample; the
// sample pass then samples the due entries, a block at a time (DESIGN.md
// §10.6). Together they rebuild the shard's published aggregates from the
// entries' caches. Re-homing and cache reloads run only while their
// counter gates are open (DESIGN.md §10.5), so a skipped visit reads
// nothing but its entry. Pass 2 squishes only this epoch's sampled jobs
// into the shard's demand-proportional slice of machine capacity, minus
// what the shard's un-sampled jobs already hold — so a walk that samples
// nothing does no squish work at all, and a sweep whose squish inputs
// equal the shard's previous whole-list squish skips it (DESIGN.md §10.5,
// skipped squish).
func (p *Plane) walk(s *shard, now sim.Time, rehome, refresh bool) {
	s.walks++
	s.wake = false

	squishable := p.squishable[:0]
	squishEnt := p.squishEnt[:0]
	desires := p.desires[:0]
	weights := p.weights[:0]
	moves := p.moves[:0]
	allAdaptive := p.adaptiveScratch[:0]

	var agg aggregates
	var held, skippedTick int
	event := p.cfg.Mode == EventDriven
	// Every entry sampled now is next due stalenessEpochs from now; a
	// skipped one is due sooner.
	nextDue := p.epoch + p.stalenessEpochs
	guarded := false
	stamp := 0
	if s.idleEpoch == p.epoch {
		stamp = s.idleLen
	}
	s.idleLen = 0 // this walk stamps them, and may compact the list

	// The decide walk reads entries only. It drops removed entries, re-homes
	// and refreshes while the gates are open, applies the lastEpoch guard
	// and decides which entries are due. A skipped entry adds its cached
	// desire and allocation to the aggregates here; due entries are
	// collected, in list order, into squishEnt (and their jobs into
	// squishable) for the sample pass.
	kept := 0
	for i, e := range s.list {
		if e.removed {
			// The entry leaves its only list here; its job pointer may
			// already name a recycled (reissued) object, so it must not be
			// dereferenced — just pool the entry.
			e.job = nil
			e.freeNext = p.freeEnt
			p.freeEnt = e
			continue
		}
		if i < stamp {
			e.lastEpoch = p.epoch
		}
		if refresh {
			e.load()
		}
		if rehome {
			if home := p.homeOf(e.job); home != s.id {
				e.shard = home
				moves = append(moves, e)
				s.handoffs++
				s.live--
				s.gen++
				p.shards[home].live++
				p.shards[home].gen++
			}
		}
		if e.shard == s.id {
			if kept != i {
				s.list[kept] = e
			}
			kept++
		}
		if e.lastEpoch == p.epoch {
			// Already visited this epoch: the entry was re-homed here by a
			// shard that ticked earlier. Its sample and its aggregate
			// contribution happened there; counting it again would
			// double-sample the job and double-count its demand. The next
			// tick must walk to count it.
			guarded = true
			continue
		}
		e.lastEpoch = p.epoch
		if event && e.adaptive {
			allAdaptive = append(allAdaptive, e)
		}
		if !event || p.shouldSample(e, now) {
			squishable = append(squishable, e.job)
			squishEnt = append(squishEnt, e)
			continue
		}
		skippedTick++
		nextDue = min(nextDue, e.sampleEpoch+p.stalenessEpochs)
		agg.add(e)
	}

	// The sample pass runs over the due entries in list order, a block at
	// a time: Prefetch first loads the block's jobs and member threads in
	// one tight loop, then each entry is sampled. The in-squish entries are
	// compacted to the front of squishEnt and squishable as the pass goes;
	// the write index never passes the read index, and a block is read
	// ahead before any of it is overwritten.
	sampledTick := len(squishEnt)
	inSquish := 0
	// The squish may be skipped only if no sampled desire moved and no
	// real-rate job is in the set (its quality streak advances at every
	// squish).
	desireMoved, realRate := false, false
	for i := 0; i < sampledTick; i++ {
		if i%core.PrefetchBlock == 0 {
			p.ctl.Prefetch(squishable[i:min(i+core.PrefetchBlock, sampledTick)])
		}
		e := squishEnt[i]
		epochs := p.epoch - e.sampleEpoch
		if !e.sampled || epochs < 1 {
			epochs = 1
		}
		j := e.job
		if e.realRate && event {
			e.watched = p.watchedOf(j)
		}
		squished := p.ctl.SampleJob(j, now, epochs)
		before := e.desired
		e.load()
		desireMoved = desireMoved || e.desired != before
		e.sampled = true
		e.sampleEpoch = p.epoch
		e.dirty = false
		if squished {
			realRate = realRate || e.realRate
			squishable[inSquish], squishEnt[inSquish] = j, e
			inSquish++
			desires = append(desires, e.desired)
			weights = append(weights, j.Importance())
			held += e.allocated
		}
		agg.add(e)
	}
	squishable, squishEnt = squishable[:inSquish], squishEnt[:inSquish]
	// whole reports whether the squish set is the shard's whole adaptive
	// list, every entry sampled by this walk: no entry was guarded (which
	// covers those an idle tick stamped), none moved out, and in event mode
	// no visited adaptive entry went unsampled. Such a set cannot need
	// over-commit recovery.
	whole := !guarded && len(moves) == 0 && (!event || inSquish == len(allAdaptive))
	clear(s.list[kept:])
	s.list = s.list[:kept]
	for _, e := range moves {
		to := p.shards[e.shard]
		to.list = append(to.list, e)
		to.wake = true
	}
	// The aggregates published below still count the entries moved out and
	// leave out the guarded ones, so the next tick must walk to correct
	// them.
	if guarded || len(moves) > 0 {
		s.wake = true
	}
	s.nextDue = nextDue

	// Publish this shard's aggregates before computing the capacity slice
	// so the split sees this epoch's demand.
	s.aggregates = agg

	// Pass 2 over the sampled set, into the shard's capacity slice.
	slice := p.slice(agg.desireRaw)
	if event && agg.allocAdaptive > slice && len(squishable) < len(allAdaptive) {
		// Over-commit recovery: the shard's jobs hold more than its slice
		// (early epochs, before every shard has published demand; or a
		// demand collapse elsewhere). Waiting for staleness to re-sample
		// the holders would leave the machine over-committed for up to the
		// staleness bound, so the whole shard is squished now with
		// retained desires. The included un-sampled jobs get their usage
		// marks advanced a little early; their next sample's smoothed
		// usage absorbs it. When every adaptive entry was sampled (a
		// staleness sweep), the squish set already is the whole shard, in
		// the same order and with the same inputs.
		squishable, squishEnt = squishable[:0], squishEnt[:0]
		desires, weights, held = desires[:0], weights[:0], 0
		for _, e := range allAdaptive {
			squishable = append(squishable, e.job)
			squishEnt = append(squishEnt, e)
			desires = append(desires, e.desired)
			weights = append(weights, e.job.Importance())
			held += e.allocated
		}
	}
	// The squish set's jobs give up what they hold; the rest of the shard's
	// adaptive jobs keep theirs out of the slice. Each squished entry still
	// caches its pre-squish allocation until the refresh below.
	squishCap := slice - (agg.allocAdaptive - held)
	skippable := whole && !realRate
	if skippable && !desireMoved && !p.forceSquish && s.installed &&
		s.gen == s.squishGen && squishCap == s.squishCap && s.writes == s.squishWrites {
		// Skipped squish: the same inputs as the installed grants' squish,
		// so every job and entry already holds what this one would grant.
		s.squishSkips++
	} else {
		if skippable || len(squishable) > 0 {
			// Read before the squish: anything its actuations set off moves
			// a count past the recorded one.
			s.installed = skippable
			s.squishGen, s.squishCap, s.squishWrites = s.gen, squishCap, s.writes
		}
		granted := p.ctl.SquishApply(squishable, desires, weights, squishCap, now)
		delta := 0
		for i, e := range squishEnt {
			delta += granted[i] - e.allocated
			e.allocated = granted[i]
		}
		s.govGranted += delta
		s.allocAdaptive += delta
	}

	p.squishable, p.squishEnt, p.desires, p.weights, p.moves = squishable, squishEnt, desires, weights, moves[:0]
	p.adaptiveScratch = allAdaptive
	s.lastSampled, s.lastSkipped = sampledTick, skippedTick
	s.sampled += uint64(sampledTick)
	s.skipped += uint64(skippedTick)
}

// aggregates are the sums a shard publishes, accumulated over one tick.
//
// desireRaw is the un-clamped adaptive demand, the numerator of the
// shard's capacity slice. govDesire and govGranted are the
// MaxProportion-clamped demand and granted proportion over all jobs,
// summed across shards for the governor at each epoch's epilogue.
// allocAdaptive is the granted proportion over adaptive jobs only, so an
// event-mode tick can subtract the un-sampled jobs' holdings from its
// capacity slice.
type aggregates struct {
	desireRaw, govDesire, govGranted, allocAdaptive int
}

// add folds one visited entry's cached desire and allocation into the
// sums. Integer addition is exact in any order, so a tick adds its
// skipped entries in the decide walk and its sampled ones in the sample
// pass.
func (a *aggregates) add(e *entry) {
	d, al := e.desired, e.allocated
	a.govDesire += min(d, core.MaxProportion)
	a.govGranted += al
	if e.adaptive {
		a.desireRaw += d
		a.allocAdaptive += al
	}
}

// Stat is one shard's counters.
type Stat struct {
	Shard    int
	Ticks    uint64
	Sampled  uint64
	Skipped  uint64
	Handoffs uint64
	// LateTicks counts ticks, other than the shard's first, whose epoch
	// did not directly follow the previous tick's: the shard or shard 0
	// fell behind the control interval.
	LateTicks uint64
	// LastSampled/LastSkipped are the most recent tick's work counts.
	LastSampled int
	LastSkipped int
}

// Stats returns per-shard counters.
func (p *Plane) Stats() []Stat {
	out := make([]Stat, len(p.shards))
	for i, s := range p.shards {
		out[i] = Stat{
			Shard: s.id, Ticks: s.ticks, Sampled: s.sampled, Skipped: s.skipped,
			Handoffs: s.handoffs, LateTicks: s.lateTicks, LastSampled: s.lastSampled, LastSkipped: s.lastSkipped,
		}
	}
	return out
}

// Mode returns the plane's sampling mode.
func (p *Plane) Mode() Mode { return p.cfg.Mode }

// Shards returns the shard count.
func (p *Plane) Shards() int { return len(p.shards) }

// Epoch returns the number of completed-or-open control epochs.
func (p *Plane) Epoch() int64 { return p.epoch }

// StalenessEpochs returns the staleness bound in control intervals — the
// most epochs any job can go un-sampled in EventDriven mode.
func (p *Plane) StalenessEpochs() int64 { return p.stalenessEpochs }

// CPUTime sums the CPU consumed by every shard thread.
func (p *Plane) CPUTime() sim.Duration {
	var total sim.Duration
	for _, s := range p.shards {
		if s.thread != nil {
			total += s.thread.CPUTime()
		}
	}
	return total
}

// Threads returns the shard threads (nil entries before Start).
func (p *Plane) Threads() []*kernel.Thread {
	out := make([]*kernel.Thread, len(p.shards))
	for i, s := range p.shards {
		out[i] = s.thread
	}
	return out
}
