// Intrusive, index-tracked priority structures for the dispatcher's hot
// path, one set per CPU (a shard). The structures hold and link scheduling
// states (*state), not threads: each state's positions are stored in the
// state itself (heapIdx/boundPos/exhIdx, boundPrev/boundNext), so
// membership tests and removals are O(1)+O(log n) with no allocation and
// no linear scans, and a wheel link or a period roll reads only policy
// memory. The ready heap's entries carry their sort keys inline, so its
// sifts compare entries without loading the states they pass. A state
// leads back to its thread through st.t, which only the kernel-facing
// edges follow (Pick's nap loop, Steal, readyTop).
//
// Ordering must reproduce the legacy linear scan bit-for-bit: the scan
// picked the *first* best thread in runnable-slice order, and slice order
// was insertion order (append on Enqueue, move-to-back on rotate, with
// order-preserving removals). A monotonically increasing sequence number,
// assigned on Enqueue and reassigned on rotate, reconstructs exactly that
// order, so every comparison ties break FIFO-among-equals like the scan.
package rbs

import (
	"repro/internal/kernel"
	"repro/internal/sim"
)

// shard is one CPU's dispatch state: the ready heap, the two-level
// period-boundary wheel with its overflow heap, and the exhausted list.
// Threads live in the shard of their assigned CPU (kernel.Thread.CPU());
// the kernel only reassigns a thread between shards while it is dequeued.
type shard struct {
	// ready is the indexed heap of dispatchable queued threads: registered
	// threads with budget and the unmanaged round-robin class below them.
	ready readyHeap
	// buckets/buckets2/overflow/curSlot form the period-boundary wheel of
	// the filed states (see filed) by next period end; Pick drains the due
	// entries instead of refreshing every runnable thread. Each bucket is
	// the head of an intrusive doubly linked list. Level 1 spans one
	// kernel tick per slot; level 2 spans bwSlots ticks per slot, so any
	// boundary within bwSlots² ticks (≈65 s at a 1 ms tick) files in O(1);
	// only boundaries beyond that fall back to the overflow min-heap.
	buckets  [bwSlots]*state
	buckets2 [bwSlots]*state
	overflow []*state
	curSlot  int64
	// exhausted lists queued registered threads with spent budgets, in
	// enqueue order; Pick naps them until their next period begins.
	exhausted []*state
	// curMin is a conservative lower bound on the smallest boundKey filed
	// in the current cursor slot's L1 bucket: while curMin > now, no entry
	// there is due and boundDrain skips the bucket walk entirely. Inserts
	// into the current slot lower it; removals leave it stale-low, which
	// only costs a wasted walk, never a late roll. Without the bound every
	// dispatch re-walks the full current-slot bucket — with thousands of
	// short-period threads sharing one tick-wide slot, that scan dominated
	// the dispatch profile at 100k-session scale.
	curMin sim.Time
	// drained is the now of the latest boundDrain: the instant the wheel
	// has rolled every filed state to, and the instant catchUp rolls a
	// lazy state to.
	drained sim.Time
	// lazyDue is a stale-low bound on the earliest period end among the
	// shard's lazy states (the ready RMS reservations the wheel does not
	// file). Filing a lazy state lowers it; MissedDeadlines skips the shard
	// while drained < lazyDue, since no lazy roll is pending, and otherwise
	// catches the ready heap up and recomputes it.
	lazyDue sim.Time
}

// timeMax is the +∞ sentinel for curMin when the current slot is empty.
const timeMax = sim.Time(1<<63 - 1)

// readyKey is st's ready-heap key, the completion of better() that
// readyLess sorts on before enqueue order: registered states with budget
// key on their clamped period in ms (RMS) or their period end (EDF), and
// everything else — the unmanaged round-robin class, and a registered
// state without budget — keys at +∞, below every reservation.
func (p *Policy) readyKey(st *state) int64 {
	if !st.registered || st.budget <= 0 {
		return keyMax
	}
	if p.Discipline == RMS {
		return clampedPeriodMs(st)
	}
	return int64(p.periodEnd(st))
}

// keyMax is the ready-heap key of every state outside the reserved class.
const keyMax = 1<<63 - 1

// clampedPeriodMs is the period in whole milliseconds with the same
// clamping goodness() applies, so RMS heap order matches goodness order
// exactly (including periods that collapse to the same clamped value).
func clampedPeriodMs(st *state) int64 {
	ms := int64(st.res.Period / sim.Millisecond)
	if ms < 1 {
		ms = 1
	}
	if ms > 1<<20 {
		ms = 1 << 20
	}
	return ms
}

// --- ready heap: queued threads eligible to run ---
//
// The heap is binary and its entries carry their sort key inline, so a
// sift compares entries without loading the states they pass: it writes
// only the heapIdx of each state it moves. A key is (readyKey, seq), and
// it is written only where the heap re-fixes a position anyway: readyPush,
// and readyFix (reconcile, rotate, the EDF roll). A lazy RMS roll keeps
// the key by construction (see filed). Verify checks every entry's key
// against its state at each Pick.
//
// The array's layout is observable beyond the top: Steal scans it in
// index order and hands over the first movable thread, so the sift must
// place entries exactly where the plain binary sift does. The entries live
// in fixed readyChunk-entry chunks: growth allocates one chunk and copies
// nothing.

// readyEntry is one ready-heap slot: a state and its cached key.
type readyEntry struct {
	key int64
	seq uint64
	st  *state
}

// readyChunk is how many entries one chunk of a ready heap holds.
const readyChunk = 256

// readyHeap is one shard's ready heap: entries 0..n-1 in chunk order.
type readyHeap struct {
	chunks []*[readyChunk]readyEntry
	n      int
}

func (h *readyHeap) at(i int) *readyEntry {
	return &h.chunks[uint(i)/readyChunk][uint(i)%readyChunk]
}

// readyLess orders the ready heap: the thread that should dispatch first
// is the heap top. Keys tie within a class; enqueue order breaks ties.
func readyLess(a, b *readyEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

func (p *Policy) readyPush(sh *shard, st *state) {
	h := &sh.ready
	if h.n == len(h.chunks)*readyChunk {
		h.chunks = append(h.chunks, new([readyChunk]readyEntry))
	}
	*h.at(h.n) = readyEntry{key: p.readyKey(st), seq: st.seq, st: st}
	h.n++
	h.up(h.n - 1)
}

func (p *Policy) readyRemove(sh *shard, st *state) {
	i := int(st.heapIdx)
	if i < 0 {
		return
	}
	st.heapIdx = -1
	h := &sh.ready
	h.n--
	last := h.at(h.n)
	moved := *last
	*last = readyEntry{} // clear the vacated tail slot
	if i == h.n {
		return
	}
	*h.at(i) = moved
	h.fixAt(i)
}

// readyFix re-keys st's entry after its key changed in place and restores
// the heap property.
func (p *Policy) readyFix(sh *shard, st *state) {
	if i := int(st.heapIdx); i >= 0 {
		e := sh.ready.at(i)
		e.key, e.seq = p.readyKey(st), st.seq
		sh.ready.fixAt(i)
	}
}

func (p *Policy) readyTop(sh *shard) *kernel.Thread {
	if sh.ready.n == 0 {
		return nil
	}
	return sh.ready.chunks[0][0].st.t
}

func (h *readyHeap) fixAt(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

// up and down move the entry at i into place and record the heap index
// of every state they move. hole is the slot the moving entry vacated, so
// each level resolves one slot, not two.
func (h *readyHeap) up(i int) {
	hole := h.at(i)
	e := *hole
	for i > 0 {
		parent := (i - 1) / 2
		pe := h.at(parent)
		if !readyLess(&e, pe) {
			break
		}
		*hole = *pe
		pe.st.heapIdx = int32(i)
		hole, i = pe, parent
	}
	*hole = e
	e.st.heapIdx = int32(i)
}

func (h *readyHeap) down(i int) bool {
	hole := h.at(i)
	e := *hole
	moved := false
	for {
		kid := 2*i + 1
		if kid >= h.n {
			break
		}
		k := h.at(kid)
		if r := kid + 1; r < h.n {
			if rk := h.at(r); readyLess(rk, k) {
				kid, k = r, rk
			}
		}
		if !readyLess(k, &e) {
			break
		}
		*hole = *k
		k.st.heapIdx = int32(i)
		hole, i = k, kid
		moved = true
	}
	*hole = e
	e.st.heapIdx = int32(i)
	return moved
}

// --- period-boundary wheel: filed states by period end ---
//
// Period refresh must run for every filed state whose period ended, on
// every dispatch — but with thousands of oversubscribed threads,
// boundaries pass at Σ 1/periodᵢ per second, so an ordered heap pays an
// O(log n) sift per roll and dominates the profile. Period ends are timer
// deadlines, so they get the same treatment as the sim engine's event
// queue: a hierarchical timer wheel. Level 1 has bwSlots buckets of one
// kernel tick each; level 2 has bwSlots buckets of bwSlots ticks each, so
// boundaries up to bwSlots² ticks out (≈65 s at a 1 ms tick) insert and
// remove in O(1) — L2 entries cascade into L1 as the cursor crosses their
// span. Only boundaries beyond the L2 horizon go to the overflow min-heap
// on cached keys. Order within a bucket is irrelevant: every due entry is
// rolled before Pick reads the ready heap.

const (
	bwSlots = 256
	bwMask  = bwSlots - 1
	bwBits  = 8 // log2(bwSlots): shift from an L1 slot to its L2 span

	// boundNone is the boundPos sentinel for "not filed"; values >= 0 are
	// a bucket index (L1/L2) or an overflow heap index, per boundLevel.
	boundNone = -1
)

// Wheel levels, stored in state.boundLevel.
const (
	levelNone = iota
	levelL1
	levelL2
	levelHeap
)

// boundInsert files st under its current period end in shard sh. st must
// be queued, registered, and hold no wheel position. Wheel buckets are
// intrusive doubly linked lists threaded through the scheduling states, so
// filing and unfiling never allocate no matter how boundaries cluster.
func (p *Policy) boundInsert(sh *shard, st *state) {
	key := p.periodEnd(st)
	st.boundKey = key
	slot := int64(key) / p.slotW
	if slot < sh.curSlot {
		slot = sh.curSlot // defensive; boundKey is re-checked when draining
	}
	if slot < sh.curSlot+bwSlots {
		bucketLink(&sh.buckets, st, levelL1, int(slot&bwMask))
		if slot == sh.curSlot && key < sh.curMin {
			sh.curMin = key
		}
		return
	}
	if slot>>bwBits < (sh.curSlot>>bwBits)+bwSlots {
		bucketLink(&sh.buckets2, st, levelL2, int((slot>>bwBits)&bwMask))
		return
	}
	st.boundLevel = levelHeap
	i := len(sh.overflow)
	sh.overflow = append(sh.overflow, st)
	overflowUp(sh, i)
}

// bucketLink pushes st onto the head of a wheel bucket's intrusive list.
func bucketLink(buckets *[bwSlots]*state, st *state, level int8, b int) {
	st.boundLevel = level
	st.boundPos = int32(b)
	st.boundPrev = nil
	st.boundNext = buckets[b]
	if st.boundNext != nil {
		st.boundNext.boundPrev = st
	}
	buckets[b] = st
}

func (p *Policy) boundRemove(sh *shard, st *state) {
	switch st.boundLevel {
	case levelNone:
		return
	case levelHeap:
		overflowRemove(sh, st)
	case levelL1, levelL2:
		buckets := &sh.buckets
		if st.boundLevel == levelL2 {
			buckets = &sh.buckets2
		}
		if st.boundPrev != nil {
			st.boundPrev.boundNext = st.boundNext
		} else {
			buckets[st.boundPos] = st.boundNext
		}
		if st.boundNext != nil {
			st.boundNext.boundPrev = st.boundPrev
		}
		st.boundPrev = nil
		st.boundNext = nil
	}
	st.boundLevel = levelNone
	st.boundPos = boundNone
}

// boundDrain rolls every filed state in sh whose period ended at or before
// now, and records now as the shard's drained instant. The L1 cursor
// advances to now's slot; L2 buckets whose span the cursor crossed cascade
// — due entries roll, the rest refile (necessarily into L1, since their
// slot is within bwSlots of the new cursor). Entries refiled during the
// drain always carry a rolled-past-now key, so the walk never revisits
// them.
func (p *Policy) boundDrain(sh *shard, now sim.Time) {
	target := int64(now) / p.slotW
	if target < sh.curSlot {
		target = sh.curSlot
	}
	oldSlot := sh.curSlot
	sh.curSlot = target
	sh.drained = now

	// Fast path: the cursor did not move and the current slot's lower bound
	// says nothing there is due yet. Skipping the L1 walk is safe because a
	// surviving entry always has slot == target (anything filed behind the
	// cursor is due by construction), so curMin bounds every candidate; the
	// L2 cascade range is empty when the cursor is still. The overflow heap
	// is still polled below — its top can come due mid-slot.
	if target > oldSlot || sh.curMin <= now {
		// L1: buckets strictly behind now's slot are entirely due; the
		// current slot is filtered by cached key.
		first := oldSlot
		if target-first >= bwSlots {
			first = target - bwSlots + 1 // the wheel holds nothing older
		}
		for s := first; s <= target; s++ {
			st := sh.buckets[s&bwMask]
			for st != nil {
				next := st.boundNext
				if st.boundKey <= now {
					p.boundRemove(sh, st)
					p.rollDue(sh, st, now)
				}
				st = next
			}
		}

		// L2: cascade every span the cursor entered or crossed. After a jump
		// beyond the whole level every bucket is due, so the clamp to bwSlots
		// visits each index exactly once.
		old2, tgt2 := oldSlot>>bwBits, target>>bwBits
		first2 := old2 + 1
		if tgt2-first2 >= bwSlots {
			first2 = tgt2 - bwSlots + 1
		}
		for s2 := first2; s2 <= tgt2; s2++ {
			b := int(s2 & bwMask)
			for sh.buckets2[b] != nil {
				st := sh.buckets2[b]
				p.boundRemove(sh, st)
				if st.boundKey <= now {
					p.rollDue(sh, st, now)
				} else {
					p.boundInsert(sh, st) // refiles against the advanced cursor
				}
			}
		}

		// Recompute the current slot's exact minimum over the survivors and
		// everything the walk refiled into it; later inserts keep it fresh
		// through boundInsert.
		min := timeMax
		for st := sh.buckets[target&bwMask]; st != nil; st = st.boundNext {
			if st.boundKey < min {
				min = st.boundKey
			}
		}
		sh.curMin = min
	}

	for len(sh.overflow) > 0 {
		st := sh.overflow[0]
		if st.boundKey > now {
			break
		}
		p.boundRemove(sh, st)
		p.rollDue(sh, st, now)
	}
}

// --- overflow min-heap on (boundKey, seq), for far-future boundaries ---

func overflowLess(sa, sb *state) bool {
	if sa.boundKey != sb.boundKey {
		return sa.boundKey < sb.boundKey
	}
	return sa.seq < sb.seq
}

func overflowRemove(sh *shard, st *state) {
	i := int(st.boundPos)
	last := len(sh.overflow) - 1
	moved := sh.overflow[last]
	sh.overflow[last] = nil
	sh.overflow = sh.overflow[:last]
	if i == last {
		return
	}
	sh.overflow[i] = moved
	moved.boundPos = int32(i)
	if !overflowDown(sh, i) {
		overflowUp(sh, i)
	}
}

func overflowUp(sh *shard, i int) {
	st := sh.overflow[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !overflowLess(st, sh.overflow[parent]) {
			break
		}
		sh.overflow[i] = sh.overflow[parent]
		sh.overflow[i].boundPos = int32(i)
		i = parent
	}
	sh.overflow[i] = st
	st.boundPos = int32(i)
}

func overflowDown(sh *shard, i int) bool {
	st := sh.overflow[i]
	n := len(sh.overflow)
	moved := false
	for {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if r := kid + 1; r < n && overflowLess(sh.overflow[r], sh.overflow[kid]) {
			kid = r
		}
		if !overflowLess(sh.overflow[kid], st) {
			break
		}
		sh.overflow[i] = sh.overflow[kid]
		sh.overflow[i].boundPos = int32(i)
		i = kid
		moved = true
	}
	sh.overflow[i] = st
	st.boundPos = int32(i)
	return moved
}

// --- exhausted list: queued registered threads with no budget ---

// exhAdd inserts st into the exhausted list keeping it sorted by enqueue
// sequence, which is the order the legacy scan napped exhausted threads
// in (their runnable-slice order). The list is almost always tiny.
func exhAdd(sh *shard, st *state) {
	if st.exhIdx >= 0 {
		return
	}
	i := len(sh.exhausted)
	sh.exhausted = append(sh.exhausted, nil)
	for i > 0 && sh.exhausted[i-1].seq > st.seq {
		sh.exhausted[i] = sh.exhausted[i-1]
		sh.exhausted[i].exhIdx = int32(i)
		i--
	}
	sh.exhausted[i] = st
	st.exhIdx = int32(i)
}

func exhRemove(sh *shard, st *state) {
	i := int(st.exhIdx)
	if i < 0 {
		return
	}
	st.exhIdx = -1
	copy(sh.exhausted[i:], sh.exhausted[i+1:])
	last := len(sh.exhausted) - 1
	sh.exhausted[last] = nil
	sh.exhausted = sh.exhausted[:last]
	for ; i < last; i++ {
		sh.exhausted[i].exhIdx = int32(i)
	}
}
