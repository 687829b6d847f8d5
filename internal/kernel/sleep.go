package kernel

import "repro/internal/sim"

// sleeper is one entry of the kernel's sleep heap: a sleeping thread and
// the deadline it wakes at. The thread's sleepSeq breaks ties.
type sleeper struct {
	wakeAt sim.Time
	t      *Thread
}

// sleepHeap is the paper's do_timers() list — "a list of timers used by
// RBS threads, sorted by time of expiry", with the next expiry cached so
// a tick does no work unless a timer has expired — as an intrusive binary
// min-heap of sleeping threads ordered by (wakeAt, sleepSeq), where
// sleepSeq is the registration order, so sleepers with equal deadlines
// wake first-in, first-out. The root is the cached next expiry. Every
// sleeping thread is in the heap exactly once and records its position in
// Thread.sleepPos, so an early wake, a Retire or a recycle removes its
// entry eagerly in O(log n) and the heap holds only live sleepers.
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
	return a.t.sleepSeq < b.t.sleepSeq
}

// push adds t, which must not be in the heap, waking at wakeAt.
func (h *sleepHeap) push(t *Thread, wakeAt sim.Time) {
	t.sleepSeq = h.seq
	h.seq++
	*h.at(h.n) = sleeper{wakeAt: wakeAt, t: t}
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
// position of every entry they move.
func (h *sleepHeap) siftUp(i int) {
	s := *h.at(i)
	for i > 0 {
		parent := (i - 1) / 2
		p := h.at(parent)
		if !sleeperBefore(&s, p) {
			break
		}
		*h.at(i) = *p
		p.t.sleepPos = int32(i + 1)
		i = parent
	}
	*h.at(i) = s
	s.t.sleepPos = int32(i + 1)
}

func (h *sleepHeap) siftDown(i int) {
	s := *h.at(i)
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
		*h.at(i) = *k
		k.t.sleepPos = int32(i + 1)
		i = kid
	}
	*h.at(i) = s
	s.t.sleepPos = int32(i + 1)
}

// expireSleepers wakes, in (wakeAt, sleepSeq) order, every sleeper whose
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
