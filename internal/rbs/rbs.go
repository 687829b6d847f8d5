// Package rbs implements the paper's reservation-based scheduler (§3.1): a
// proportion/period dispatcher built on goodness-style selection, in the
// mold of the prototype's modified Linux 2.0.35 scheduling policy.
//
// Each registered thread holds a reservation: a proportion in
// parts-per-thousand of a period in milliseconds. Within each period the
// thread may consume proportion×period of CPU; when the budget is spent the
// thread "is put to sleep until its next period begins". Threads the policy
// knows nothing about (unregistered) run round-robin strictly below every
// registered thread, mirroring the prototype where only registered jobs use
// the RBS policy and everything else stays on the default scheduler.
//
// Dispatch-time enforcement is quantized to the timer tick exactly as the
// prototype's was ("the minimum allocation is 1 msec", §4.3). Setting
// PreciseAccounting emulates the paper's proposed improvement of
// microsecond-granularity accounting, and is benchmarked as an ablation.
//
// The dispatcher's hot path is O(log n) in the number of queued threads:
// the runnable set is an intrusive indexed heap ordered by the discipline
// (see heap.go), period refresh is driven by a two-level period-boundary
// timer wheel (with an overflow heap for boundaries past its horizon)
// drained at dispatch points instead of a full refresh scan per Pick, and
// the registered-proportion total is maintained incrementally. The wheel
// files only the states whose roll moves them (see filed); a ready RMS
// reservation rolls lazily, caught up before anything reads or changes
// it. These structures hold the per-thread scheduling states themselves,
// so the drain reads only the policy's own memory, and the ready heap's
// entries carry their keys, so its sifts read only the entries. The
// resulting schedule is bit-identical to the legacy linear scan's (the
// Verify hook cross-checks every Pick against the scan order).
package rbs

import (
	"fmt"
	"sort"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// PPT is the denominator of proportions: parts per thousand, as in the
// paper ("a percentage, specified in parts-per-thousand").
const PPT = 1000

// Discipline selects how the dispatcher orders registered threads. The
// prototype used rate-monotonic goodness; the paper notes that "we could
// equally well have used other RBS mechanisms" — EDF is provided as the
// obvious alternative and as an ablation (EDF schedules any feasible task
// set up to full utilization, while RMS can miss beyond the Liu-Layland
// bound for non-harmonic periods).
type Discipline int

const (
	// RMS orders by period: shorter period, higher goodness (the paper's
	// prototype).
	RMS Discipline = iota
	// EDF orders by earliest current deadline (end of period).
	EDF
)

// Reservation is a proportion/period pair.
type Reservation struct {
	// Proportion is the share of the CPU in parts-per-thousand.
	Proportion int
	// Period is the repeating deadline over which the proportion is owed.
	Period sim.Duration
}

// Budget returns the CPU time the reservation grants per period.
func (r Reservation) Budget() sim.Duration {
	return sim.Duration(int64(r.Period) * int64(r.Proportion) / PPT)
}

func (r Reservation) String() string {
	return fmt.Sprintf("%d/1000 over %v", r.Proportion, r.Period)
}

// state is the per-thread scheduling state. The shard structures (ready
// heap, boundary wheel, exhausted list) hold and link states directly, and
// t leads back to the thread, so the dispatch hot path never loads a
// kernel.Thread to reach its Sched slot.
//
// The layout is hot-first and two cache lines long. The first line holds
// everything the wheel drain, refresh, boundInsert/boundRemove and
// readyKey read; the second holds the positions and counters a roll
// writes, then the cold fields. The size is a multiple of 64 so every state carved from a
// page-aligned slab chunk starts on a line boundary (TestStateLayout).
type state struct {
	// boundKey caches the period end the wheel entry was filed under;
	// boundNext/boundPrev link the intrusive bucket list. While the state
	// is pooled (recycle mode), boundNext links the policy's free list.
	boundKey    sim.Time
	boundNext   *state
	periodStart sim.Time
	res         Reservation
	budget      sim.Duration // remaining allocation this period
	// perBudget caches res.Budget() so the per-period roll does no
	// multiply/divide; SetReservation keeps it in sync.
	perBudget sim.Duration
	// boundLevel/boundPos place the entry in the two-level period-boundary
	// wheel (see heap.go): the level, then the bucket index (L1/L2) or the
	// overflow heap index.
	boundPos   int32
	boundLevel int8
	registered bool
	queued     bool
	napping    bool // asleep on budget exhaustion (not a voluntary sleep)

	boundPrev *state
	// seq reconstructs the legacy runnable-slice order: assigned when the
	// thread enters the queue and reassigned on round-robin rotation, so
	// FIFO-among-equals tie-breaking matches the linear scan exactly.
	seq uint64
	// heapIdx/exhIdx track the state's positions in the ready heap and
	// the exhausted list (-1 = absent).
	heapIdx int32
	exhIdx  int32
	used    sim.Duration // consumed this period
	// rrUsed is quantum usage for unregistered threads.
	rrUsed sim.Duration
	// t is the thread this state schedules; nil while pooled.
	t *kernel.Thread
	// counted marks threads included in the incremental proportion total.
	counted bool
	// _ rounds the state up to two full cache lines.
	_ [8]byte
}

// Policy is the reservation-based dispatcher.
type Policy struct {
	k *kernel.Kernel

	// PreciseAccounting ends run segments exactly at budget exhaustion
	// instead of at the next dispatch tick (§4.3's proposed improvement).
	PreciseAccounting bool
	// Discipline orders registered threads: RMS (default) or EDF.
	Discipline Discipline
	// UnmanagedQuantum is the round-robin quantum for unregistered threads.
	UnmanagedQuantum sim.Duration
	// Verify cross-checks every Pick against the legacy O(n) linear scan
	// and panics on divergence. Testing hook; leave false in production.
	Verify bool

	// shards holds the per-CPU dispatch structures (ready heap, boundary
	// wheel, exhausted list), indexed by kernel CPU id. Admission state —
	// the registered-proportion total, sequence numbers, missed-deadline
	// counts — stays global: the paper's overload signal sums over the
	// whole machine.
	shards []shard
	slotW  int64

	seqGen    uint64
	totalProp int
	// needResched flags CPUs whose current thread was beaten by an
	// enqueue; the kernel's per-CPU tick hook consumes them.
	needResched []bool
	missedTotal uint64

	// stSlab is the chunk backing new per-thread states; freeState heads
	// the free list of recycled ones (recycle mode only), linked through
	// boundNext.
	stSlab    []state
	freeState *state
	// recycle pools a thread's state at RemoveThread: the kernel's
	// Config.Recycle, read at Attach. A pooled state's Sched slot is
	// nilled, so the read-only accessors then report the unregistered zero
	// for exited threads instead of their final values; callers that
	// inspect exited threads' scheduling state after a run (the
	// proportion-delivery property tests do) must leave it off.
	recycle bool
}

// shardOf returns the shard of t's assigned CPU.
func (p *Policy) shardOf(t *kernel.Thread) *shard { return &p.shards[t.CPU()] }

// New returns a reservation-based policy with the prototype's defaults.
func New() *Policy {
	return &Policy{UnmanagedQuantum: 10 * sim.Millisecond}
}

// Name implements kernel.Policy.
func (p *Policy) Name() string { return "rbs" }

// Attach implements kernel.Policy. The boundary wheel's slot width is the
// kernel tick: dispatch points arrive at least once per tick, so the wheel
// cursor advances at most one slot per dispatch.
func (p *Policy) Attach(k *kernel.Kernel) {
	p.k = k
	p.recycle = k.Config().Recycle
	p.slotW = int64(k.Config().TickInterval)
	p.shards = make([]shard, k.NumCPUs())
	p.needResched = make([]bool, k.NumCPUs())
	for i := range p.shards {
		p.shards[i].curSlot = int64(k.Now()) / p.slotW
		p.shards[i].drained = k.Now()
		p.shards[i].lazyDue = timeMax
	}
}

// Kernel returns the kernel this policy is attached to.
func (p *Policy) Kernel() *kernel.Kernel { return p.k }

func stateOf(t *kernel.Thread) *state { return t.Sched.(*state) }

// stateSlabSize is how many per-thread state objects one slab chunk holds.
const stateSlabSize = 256

// allocState returns a fresh unregistered state: from the free pool when
// recycling has banked one, otherwise carved from the current slab chunk.
func (p *Policy) allocState(t *kernel.Thread) *state {
	if st := p.freeState; st != nil {
		p.freeState = st.boundNext
		*st = state{heapIdx: -1, exhIdx: -1, boundLevel: levelNone, boundPos: boundNone, t: t}
		return st
	}
	if len(p.stSlab) == 0 {
		p.stSlab = make([]state, stateSlabSize)
	}
	st := &p.stSlab[0]
	p.stSlab = p.stSlab[1:]
	st.heapIdx, st.exhIdx = -1, -1
	st.boundLevel, st.boundPos = levelNone, boundNone
	st.t = t
	return st
}

// AddThread implements kernel.Policy: new threads start unregistered.
func (p *Policy) AddThread(t *kernel.Thread, now sim.Time) {
	t.Sched = p.allocState(t)
}

// RemoveThread implements kernel.Policy. The thread leaves the proportion
// total here, at its exit, matching the old full-scan TotalProportion
// which skipped exited threads on every call.
// In recycle mode the state object is pooled here: the kernel guarantees
// the thread is already out of every dispatch structure (Dequeue runs
// first on the exit path), so nothing in the shard still references it.
func (p *Policy) RemoveThread(t *kernel.Thread, now sim.Time) {
	st, ok := t.Sched.(*state)
	if !ok {
		return
	}
	if st.counted {
		p.totalProp -= st.res.Proportion
		st.counted = false
	}
	if p.recycle {
		t.Sched = nil
		st.t = nil
		st.boundNext = p.freeState
		p.freeState = st
	}
}

// SetReservation registers t (if needed) and installs a reservation. A
// proportion increase takes effect immediately within the current period; a
// decrease caps the remaining budget. Changing the period restarts the
// period phase at the current instant.
func (p *Policy) SetReservation(t *kernel.Thread, res Reservation) error {
	if res.Proportion < 0 || res.Proportion > PPT {
		return fmt.Errorf("rbs: proportion %d out of [0,%d]", res.Proportion, PPT)
	}
	if res.Period <= 0 {
		return fmt.Errorf("rbs: non-positive period %v", res.Period)
	}
	now := p.k.Now()
	st, ok := t.Sched.(*state)
	if !ok {
		// Recycled (exited) thread: installing a reservation on a thread
		// with no scheduling state is the same silent no-op it always was
		// on an exited, un-recycled one — nothing is queued, nothing wakes.
		return nil
	}
	p.catchUp(st)
	if !st.registered || st.res.Period != res.Period {
		if st.counted {
			p.totalProp += res.Proportion - st.res.Proportion
		} else if t.State() != kernel.StateExited {
			p.totalProp += res.Proportion
			st.counted = true
		}
		st.registered = true
		st.res = res
		st.perBudget = res.Budget()
		st.periodStart = now
		st.budget = st.perBudget
		st.used = 0
	} else {
		if st.counted {
			p.totalProp += res.Proportion - st.res.Proportion
		}
		st.res = res
		st.perBudget = res.Budget()
		p.refresh(st, now)
		// Re-derive the remaining budget from the new proportion so total
		// usage this period tops out at the new allocation.
		b := res.Budget() - st.used
		if b < 0 {
			b = 0
		}
		st.budget = b
	}
	p.reconcile(st)
	if st.napping && st.budget > 0 {
		// The nap was based on the old, smaller allocation.
		st.napping = false
		p.k.Wake(t)
	}
	return nil
}

// ReservationOf returns t's reservation and whether it is registered. A
// recycled (exited) thread reads as unregistered.
func (p *Policy) ReservationOf(t *kernel.Thread) (Reservation, bool) {
	st, ok := t.Sched.(*state)
	if !ok {
		return Reservation{}, false
	}
	return st.res, st.registered
}

// Unregister returns t to the unmanaged round-robin class. Unregistering a
// recycled (exited) thread is a no-op.
func (p *Policy) Unregister(t *kernel.Thread) {
	st, ok := t.Sched.(*state)
	if !ok {
		return
	}
	p.catchUp(st)
	if st.counted {
		p.totalProp -= st.res.Proportion
		st.counted = false
	}
	st.registered = false
	st.res = Reservation{}
	p.reconcile(st)
}

// MissedDeadlines returns the count of periods that ended with a runnable
// thread still holding unused budget — the dispatcher could not deliver the
// allocation. The prototype notifies the controller of misses so it can
// grow the spare capacity; the controller polls this counter.
//
// The count includes every lazy roll up to each shard's drained instant:
// a shard whose lazyDue says a lazy roll may be pending has its ready heap
// caught up first, and its lazyDue recomputed.
func (p *Policy) MissedDeadlines() uint64 {
	for i := range p.shards {
		sh := &p.shards[i]
		if sh.drained < sh.lazyDue {
			continue
		}
		due := timeMax
		for i := 0; i < sh.ready.n; i++ {
			if st := sh.ready.at(i).st; st.registered {
				p.refresh(st, sh.drained)
				if end := p.periodEnd(st); end < due {
					due = end
				}
			}
		}
		sh.lazyDue = due
	}
	return p.missedTotal
}

// TotalProportion sums the proportions of all registered live threads, the
// paper's overload signal ("one can easily detect overload by summing the
// proportions"). The sum is maintained incrementally by SetReservation,
// Unregister, and thread exit, so admission-control checks are O(1)
// instead of a scan over every thread ever created.
func (p *Policy) TotalProportion() int { return p.totalProp }

// refresh rolls st's period forward to contain now, refilling the budget
// and recording deadline misses. The roll is closed-form over the k
// periods that ended (the legacy loop rolled one at a time): the first
// ended period misses iff the thread was queued with budget left, and
// each further one iff it was queued with a non-empty refill. Callers with
// st in the queue must re-fix the priority structures afterwards (roll
// does both).
func (p *Policy) refresh(st *state, now sim.Time) {
	if !st.registered {
		return
	}
	elapsed := now.Sub(st.periodStart)
	if elapsed < st.res.Period {
		return
	}
	k := int64(elapsed / st.res.Period)
	if st.queued {
		var miss uint64
		if st.budget > 0 {
			miss++
		}
		if k > 1 && st.perBudget > 0 {
			miss += uint64(k - 1)
		}
		p.missedTotal += miss
	}
	st.periodStart = st.periodStart.Add(sim.Duration(k * int64(st.res.Period)))
	st.budget = st.perBudget
	st.used = 0
}

// roll is refresh plus structure maintenance: after the period rolls, the
// boundary entry moves to its new slot, an exhausted thread whose budget
// refilled rejoins the ready heap, and an EDF deadline change reorders the
// ready heap.
func (p *Policy) roll(t *kernel.Thread, st *state, now sim.Time) {
	if !st.registered || now.Sub(st.periodStart) < st.res.Period {
		return
	}
	if !st.queued {
		p.refresh(st, now)
		return
	}
	sh := p.shardOf(t)
	p.boundRemove(sh, st)
	p.rollDue(sh, st, now)
}

// rollDue rolls a queued registered thread of shard sh that holds no
// wheel position, and refiles it.
func (p *Policy) rollDue(sh *shard, st *state, now sim.Time) {
	wasExhausted := st.exhIdx >= 0
	p.refresh(st, now)
	p.file(sh, st)
	if wasExhausted && st.budget > 0 {
		exhRemove(sh, st)
		p.readyPush(sh, st)
	} else if p.Discipline == EDF {
		p.readyFix(sh, st)
	}
}

// reconcile re-derives st's structure memberships and keys from its
// reservation, after SetReservation/Unregister mutate it arbitrarily.
func (p *Policy) reconcile(st *state) {
	if !st.queued {
		return
	}
	sh := p.shardOf(st.t)
	p.boundRemove(sh, st)
	if st.registered {
		p.file(sh, st)
	}
	if !st.registered || st.budget > 0 {
		exhRemove(sh, st)
		if st.heapIdx < 0 {
			p.readyPush(sh, st)
		} else {
			p.readyFix(sh, st)
		}
	} else {
		p.readyRemove(sh, st)
		exhAdd(sh, st)
	}
}

// filed reports whether the roll of queued registered state st moves it,
// so the boundary wheel must roll it at its period end: under EDF the roll
// moves its ready-heap key, and an exhausted state's roll refills it into
// the ready heap. A ready RMS state with budget > 0 and perBudget > 0
// keeps its heap key (class, clamped period, seq) across a roll, so it is
// not filed and rolls lazily: refresh is closed-form and composes, and
// catchUp rolls it to its shard's drained instant before anything that
// reads or changes it — Dequeue, SetReservation, Unregister,
// MissedDeadlines — while TimeSlice and Charge roll it to now.
func (p *Policy) filed(st *state) bool {
	return p.Discipline == EDF || st.budget <= 0 || st.perBudget <= 0
}

// file places queued registered state st, which holds no wheel position:
// in the wheel when filed, otherwise lazily, lowering its shard's lazyDue.
func (p *Policy) file(sh *shard, st *state) {
	if p.filed(st) {
		p.boundInsert(sh, st)
	} else if end := p.periodEnd(st); end < sh.lazyDue {
		sh.lazyDue = end
	}
}

// catchUp rolls a queued state to its shard's drained instant, the roll
// the wheel would have made at the latest drain had the state been filed.
// A filed state is already rolled that far, so only a lazy one moves.
func (p *Policy) catchUp(st *state) {
	if st.queued {
		p.refresh(st, p.shardOf(st.t).drained)
	}
}

func (p *Policy) periodEnd(st *state) sim.Time {
	return st.periodStart.Add(st.res.Period)
}

// goodness ranks runnable threads: registered threads with budget beat
// everything, and "jobs with shorter periods have higher goodness values"
// (rate-monotonic order). Unregistered threads share a low flat score.
func (p *Policy) goodness(t *kernel.Thread) int64 {
	st := stateOf(t)
	if st.registered {
		if st.budget <= 0 {
			return 0
		}
		g := int64(1) << 40
		return g - clampedPeriodMs(st)
	}
	return 1000
}

// Enqueue implements kernel.Policy: the thread joins its assigned CPU's
// shard.
func (p *Policy) Enqueue(t *kernel.Thread, now sim.Time) {
	st := stateOf(t)
	st.napping = false
	p.refresh(st, now)
	if st.queued {
		return
	}
	sh := p.shardOf(t)
	st.queued = true
	st.seq = p.seqGen
	p.seqGen++
	if st.registered {
		p.file(sh, st)
		if st.budget > 0 {
			p.readyPush(sh, st)
		} else {
			exhAdd(sh, st)
		}
	} else {
		p.readyPush(sh, st)
	}
	if cur := p.k.CurrentOn(t.CPU()); cur != nil && p.better(t, cur) {
		p.needResched[t.CPU()] = true
	}
}

// Dequeue implements kernel.Policy.
func (p *Policy) Dequeue(t *kernel.Thread, now sim.Time) {
	st := stateOf(t)
	if !st.queued {
		return
	}
	p.catchUp(st)
	sh := p.shardOf(t)
	st.queued = false
	p.readyRemove(sh, st)
	p.boundRemove(sh, st)
	exhRemove(sh, st)
}

// Steal implements kernel.Policy: hand over a migratable runnable thread
// from the given CPU's ready heap, dequeued. The heap array is scanned in
// index order, so the heap top — the thread that would run there next —
// is preferred when movable.
func (p *Policy) Steal(from int, now sim.Time) *kernel.Thread {
	if p.shards[from].ready.n == 0 {
		// Every idle CPU polls each peer at every dispatch point, and on
		// a mostly idle machine almost every peer's heap is empty.
		return nil
	}
	t := p.stealable(from)
	if t != nil {
		p.Dequeue(t, now)
	}
	return t
}

// stealable returns the first movable thread in the given CPU's ready
// heap array, or nil.
func (p *Policy) stealable(from int) *kernel.Thread {
	cur := p.k.CurrentOn(from)
	h := &p.shards[from].ready
	for i := 0; i < h.n; i++ {
		if t := h.at(i).st.t; kernel.Movable(t, cur) {
			return t
		}
	}
	return nil
}

// better reports whether a should be dispatched ahead of b under the
// configured discipline. Registered threads with budget always beat
// unmanaged ones.
func (p *Policy) better(a, b *kernel.Thread) bool {
	if p.Discipline == RMS {
		return p.goodness(a) > p.goodness(b)
	}
	sa, sb := stateOf(a), stateOf(b)
	ra := sa.registered && sa.budget > 0
	rb := sb.registered && sb.budget > 0
	switch {
	case ra && !rb:
		return true
	case !ra && rb:
		return false
	case !ra && !rb:
		return false // FIFO among unmanaged: keep the earlier one
	default:
		return p.periodEnd(sa).Before(p.periodEnd(sb))
	}
}

// Pick implements kernel.Policy: the best thread under the discipline
// wins. Registered threads that are runnable with an exhausted budget are
// napped until their next period as a side effect.
//
// Instead of refreshing every runnable thread per dispatch, Pick drains
// the due entries of the period-boundary wheel (refresh runs once per
// period per thread, at O(1) amortized structure cost), naps the
// exhausted list, and takes the ready heap top: O(log n) where the legacy
// scan was O(n) on every dispatch.
func (p *Policy) Pick(cpu int, now sim.Time) *kernel.Thread {
	sh := &p.shards[cpu]
	p.boundDrain(sh, now)
	if n := len(sh.exhausted); n > 0 {
		// Detach each entry before napping it so SleepThreadUntil's Dequeue
		// skips the list and the whole drain is O(n), in enqueue order (nap
		// order fixes timer order at equal deadlines, hence wake order).
		for i := 0; i < n; i++ {
			st := sh.exhausted[i]
			sh.exhausted[i] = nil
			st.exhIdx = -1
			st.napping = true
			p.k.SleepThreadUntil(st.t, p.periodEnd(st))
		}
		sh.exhausted = sh.exhausted[:0]
	}
	if p.Verify {
		p.verifyPick(sh, now)
	}
	return p.readyTop(sh)
}

// verifyPick replays the legacy linear scan — runnable threads in slice
// (enqueue) order, first-best wins via better() — and panics if the heap
// disagrees. It also asserts the invariants the heap relies on: every
// registered state on the wheel is filed and has its due period rolled,
// every registered state off it keeps the lazy invariant (verifyLazy), no
// exhausted thread lingers in the ready set, and every ready entry is its
// thread's live state at its recorded slot, keyed as its state reads now.
func (p *Policy) verifyPick(sh *shard, now sim.Time) {
	scan := make([]*state, sh.ready.n)
	for i := range scan {
		e := sh.ready.at(i)
		st := e.st
		if st.t == nil || st.t.Sched != st {
			panic(fmt.Sprintf("rbs: verify: ready slot %d holds a state its thread %v does not own", i, st.t))
		}
		if int(st.heapIdx) != i {
			panic(fmt.Sprintf("rbs: verify: %v at ready slot %d records heapIdx %d", st.t, i, st.heapIdx))
		}
		if key := p.readyKey(st); e.key != key || e.seq != st.seq {
			panic(fmt.Sprintf("rbs: verify: %v at ready slot %d is keyed (%d, %d), its state reads (%d, %d)", st.t, i, e.key, e.seq, key, st.seq))
		}
		scan[i] = st
	}
	sort.Slice(scan, func(i, j int) bool { return scan[i].seq < scan[j].seq })
	var best *kernel.Thread
	for _, st := range scan {
		t := st.t
		if st.registered && st.boundLevel != levelNone {
			if !p.filed(st) {
				panic(fmt.Sprintf("rbs: verify: %v holds a wheel position but is not filed", t))
			}
			if now.Sub(st.periodStart) >= st.res.Period {
				panic(fmt.Sprintf("rbs: verify: %v has an unrolled period at Pick", t))
			}
		} else if st.registered {
			p.verifyLazy(sh, st)
		}
		if st.registered && st.budget <= 0 {
			panic(fmt.Sprintf("rbs: verify: exhausted %v in ready heap", t))
		}
		if best == nil || p.better(t, best) {
			best = t
		}
	}
	if top := p.readyTop(sh); top != best {
		panic(fmt.Sprintf("rbs: verify: heap picked %v, scan picked %v", top, best))
	}
}

// verifyLazy asserts the invariant that makes the lazy roll of a
// registered state off the wheel exact. verifyPick has found it in its
// shard's ready heap at its heapIdx with no wheel position; it must also
// run under RMS and be queued with budget > 0 and perBudget > 0 (so a roll
// keeps its ready-heap key and every ended period is a miss), and end its
// period no earlier than the shard's lazyDue (so MissedDeadlines' skip is
// sound).
func (p *Policy) verifyLazy(sh *shard, st *state) {
	t := st.t
	switch {
	case p.Discipline != RMS:
		panic(fmt.Sprintf("rbs: verify: unfiled %v under EDF", t))
	case !st.queued:
		panic(fmt.Sprintf("rbs: verify: unfiled %v is not queued", t))
	case st.budget <= 0 || st.perBudget <= 0:
		panic(fmt.Sprintf("rbs: verify: unfiled %v has budget %v of %v", t, st.budget, st.perBudget))
	case p.periodEnd(st) < sh.lazyDue:
		panic(fmt.Sprintf("rbs: verify: unfiled %v ends its period at %v, before lazyDue %v", t, p.periodEnd(st), sh.lazyDue))
	}
}

// TimeSlice implements kernel.Policy. For registered threads the slice is
// the remaining budget — rounded up to whole dispatch ticks unless
// PreciseAccounting is set, reproducing the prototype's quantization.
func (p *Policy) TimeSlice(t *kernel.Thread, now sim.Time) sim.Duration {
	st := stateOf(t)
	if !st.registered {
		rem := p.UnmanagedQuantum - st.rrUsed
		if rem < 0 {
			rem = 0
		}
		return rem
	}
	p.roll(t, st, now)
	if st.budget <= 0 {
		return 0
	}
	if p.PreciseAccounting {
		return st.budget
	}
	tick := p.k.Tick()
	n := (int64(st.budget) + int64(tick) - 1) / int64(tick)
	return sim.Duration(n) * tick
}

// Charge implements kernel.Policy: decrement the budget and nap the thread
// until its next period once the allocation is spent.
func (p *Policy) Charge(t *kernel.Thread, cpu int, ran sim.Duration, now sim.Time) bool {
	st := stateOf(t)
	if !st.registered {
		st.rrUsed += ran
		if st.rrUsed >= p.UnmanagedQuantum {
			st.rrUsed = 0
			p.rotate(t)
			return true
		}
		return false
	}
	p.roll(t, st, now)
	st.used += ran
	st.budget -= ran
	if st.budget <= 0 {
		st.budget = 0
		if t.Runnable() {
			st.napping = true
			p.k.SleepThreadUntil(t, p.periodEnd(st))
		} else if st.queued {
			// Stays queued with a spent budget (the legacy scan kept such
			// threads in the runnable slice); Pick naps it next dispatch.
			// An exhausted state is filed, so a lazy one joins the wheel.
			sh := p.shardOf(t)
			p.readyRemove(sh, st)
			exhAdd(sh, st)
			if st.boundLevel == levelNone {
				p.boundInsert(sh, st)
			}
		}
		return true
	}
	return false
}

// rotate moves an unmanaged thread behind every other unmanaged thread on
// its CPU, the round-robin step at quantum expiry. Reassigning the enqueue
// sequence is exactly the legacy move-to-back of the runnable slice.
func (p *Policy) rotate(t *kernel.Thread) {
	st := stateOf(t)
	if !st.queued {
		return
	}
	st.seq = p.seqGen
	p.seqGen++
	p.readyFix(p.shardOf(t), st)
}

// Tick implements kernel.Policy.
func (p *Policy) Tick(cpu int, now sim.Time) bool {
	r := p.needResched[cpu]
	p.needResched[cpu] = false
	return r
}

// WakePreempts implements kernel.Policy: the prototype preempts "if the
// woken thread is under our control and has higher goodness".
func (p *Policy) WakePreempts(woken, current *kernel.Thread, now sim.Time) bool {
	return p.better(woken, current)
}
