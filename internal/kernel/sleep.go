package kernel

import "repro/internal/sim"

// sleeper is one entry of the kernel's sleep heap: a sleeping thread, the
// deadline it wakes at and the registration number of its sleep, which
// breaks ties. Both keys sit in the entry, so a sift compares entries
// without loading the threads they pass.
type sleeper struct {
	wakeAt sim.Time
	seq    uint64
	t      *Thread
}

// sleepHeap is the paper's do_timers() list — "a list of timers used by
// RBS threads, sorted by time of expiry", with the next expiry cached so
// a tick does no work unless a timer has expired — as an intrusive binary
// min-heap of sleeping threads ordered by (wakeAt, seq), where seq is the
// registration order, so sleepers with equal deadlines wake first-in,
// first-out. Period ends line up, so equal deadlines are common, and the
// tie-break reads only the entries. The root is the cached next expiry.
// Every sleeping thread is in the heap exactly once and records its
// position in Thread.sleepPos, so an early wake, a Retire or a recycle
// removes its entry eagerly in O(log n) and the heap holds only live
// sleepers. A sift writes the sleepPos of each thread it moves and reads
// no thread.
//
// A thread sleeps in at most one entry, so the heap never holds more
// entries than the kernel has carved Thread objects. Its storage is
// therefore carved with them: each thread slab chunk carries one entry
// per thread (threadSlab), chunk i of the heap is slab i's, and a sleep
// never allocates.
type sleepHeap struct {
	chunks []*[threadSlabSize]sleeper
	n      int // entries in use
	seq    uint64
}

func (h *sleepHeap) at(i int) *sleeper {
	return &h.chunks[uint(i)/threadSlabSize][uint(i)%threadSlabSize]
}

func sleeperBefore(a, b *sleeper) bool {
	if a.wakeAt != b.wakeAt {
		return a.wakeAt < b.wakeAt
	}
	return a.seq < b.seq
}

// push adds t, which must not be in the heap, waking at wakeAt.
func (h *sleepHeap) push(t *Thread, wakeAt sim.Time) {
	*h.at(h.n) = sleeper{wakeAt: wakeAt, seq: h.seq, t: t}
	h.seq++
	h.n++
	h.siftUp(h.n - 1)
}

// remove takes t's entry out of the heap; t must be in it.
func (h *sleepHeap) remove(t *Thread) {
	i := int(t.sleepPos) - 1
	t.sleepPos = 0
	h.n--
	last := h.at(h.n)
	moved := *last
	*last = sleeper{}
	if i < h.n {
		*h.at(i) = moved
		h.siftDown(i)
		h.siftUp(i)
	}
}

// siftUp and siftDown move the entry at i into place and record the
// position of every entry they move. hole is the slot the moving entry
// vacated, so each level resolves one slot, not two.
func (h *sleepHeap) siftUp(i int) {
	hole := h.at(i)
	s := *hole
	for i > 0 {
		parent := (i - 1) / 2
		p := h.at(parent)
		if !sleeperBefore(&s, p) {
			break
		}
		*hole = *p
		p.t.sleepPos = int32(i + 1)
		hole, i = p, parent
	}
	*hole = s
	s.t.sleepPos = int32(i + 1)
}

func (h *sleepHeap) siftDown(i int) {
	hole := h.at(i)
	s := *hole
	for {
		kid := 2*i + 1
		if kid >= h.n {
			break
		}
		k := h.at(kid)
		if r := kid + 1; r < h.n {
			if rk := h.at(r); sleeperBefore(rk, k) {
				kid, k = r, rk
			}
		}
		if !sleeperBefore(k, &s) {
			break
		}
		*hole = *k
		k.t.sleepPos = int32(i + 1)
		hole, i = k, kid
	}
	*hole = s
	s.t.sleepPos = int32(i + 1)
}

// expireSleepers wakes, in (wakeAt, seq) order, every sleeper whose
// deadline is at or before now — the paper's do_timers(). It returns the
// number of threads woken.
func (k *Kernel) expireSleepers(now sim.Time) int {
	h := &k.sleepers
	fired := 0
	for h.n > 0 && h.chunks[0][0].wakeAt <= now {
		// Remove before waking: the wake path may put the thread (or
		// another) straight back to sleep.
		t := h.chunks[0][0].t
		h.remove(t)
		k.wake(t, now)
		fired++
	}
	return fired
}
