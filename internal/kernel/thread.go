package kernel

import (
	"fmt"

	"repro/internal/sim"
)

// State is a thread's scheduling state.
type State int

// Thread states.
const (
	StateReady    State = iota // runnable, waiting for the CPU
	StateRunning               // currently on the CPU
	StateBlocked               // waiting on a queue, mutex, or wait queue
	StateSleeping              // waiting for a timer
	StateExited                // retired
)

func (s State) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateSleeping:
		return "sleeping"
	case StateExited:
		return "exited"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Thread is a simulated kernel thread. All fields are managed by the kernel
// and its policy; workloads interact with threads only through their
// Program and the read-only accessors.
type Thread struct {
	id      int
	name    string
	program Program
	kern    *Kernel

	state State
	// cpu is the CPU the thread is assigned to: its run-queue shard, and
	// the CPU it runs on when dispatched. The kernel changes it only while
	// the thread is outside every policy structure (see Kernel.migrate).
	cpu int
	// affinity pins the thread to one CPU (AffinityAny = unpinned). Pinned
	// threads are never migrated by work-pull.
	affinity int
	// migrations counts how many times the thread changed CPUs.
	migrations uint64
	// op is the operation in progress; nil when the program must be asked
	// for the next one.
	op Op
	// remaining is the unburned portion of an in-progress OpCompute.
	remaining sim.Cycles
	// zeroOps counts consecutive operations that consumed no CPU, to catch
	// runaway programs.
	zeroOps int

	// waitingOn is the wait queue the thread is parked on while Blocked.
	waitingOn *WaitQueue
	// wakeTimer is the pending sleep timer while Sleeping.
	wakeTimer *Timer

	// cpuTime is the total simulated CPU the thread has consumed.
	cpuTime sim.Duration
	// dispatched counts how many run segments the thread received.
	dispatched uint64
	// blockedCount counts voluntary blocks (queue/mutex/waitq).
	blockedCount uint64
	// lastRunStart supports burst-length measurement for the interactive
	// heuristic: time the thread last went Running after a block.
	runSinceBlock sim.Duration

	// gen is the slot's generation: incremented when the thread object is
	// recycled into the kernel's free pool, so any holder of a stale
	// reference can detect that the slot now belongs to a stranger. It is
	// 0 for the object's first occupant and survives field resets.
	gen uint32
	// slot is the object's dense index among every Thread object the
	// kernel has carved (0, 1, 2, …): assigned once when the object is cut
	// from a slab chunk and kept across recycling, so the layers above can
	// index per-thread tables by it instead of hashing the pointer.
	slot int32
	// listIdx is the thread's index in Kernel.threads, maintained so a
	// recycling kernel can swap-remove an exited thread in O(1).
	listIdx int
	// freeNext links the object into the kernel's thread free list while
	// pooled.
	freeNext *Thread
	// ownedMutexes counts mutexes this thread currently holds. A thread
	// that exits while holding a lock is never recycled: the Mutex.owner
	// pointer would otherwise dangle into the pool.
	ownedMutexes int

	// Sched is the policy's per-thread state; the kernel never touches it.
	Sched any
	// User is the embedding layer's per-thread state (the public package
	// stores its handle here so tracer-driven taps skip the map
	// translation); the kernel never touches it.
	User any
}

// ID returns the thread's kernel-assigned identifier.
func (t *Thread) ID() int { return t.id }

// Gen returns the slot's generation counter. A recycling kernel bumps it
// every time the object is returned to the pool, so a holder that saved
// the generation at spawn can detect use-after-retire of a recycled slot
// deterministically: saved != current means the slot was reissued.
func (t *Thread) Gen() uint32 { return t.gen }

// Slot returns the thread object's dense slot index. Slots are numbered
// from 0 in the order the kernel carves Thread objects, and a recycled
// object keeps its slot, so at any instant no two live threads share one
// and the highest slot is bounded by the peak number of thread objects —
// not by the number of spawns. Per-thread tables indexed by slot must
// clear an entry when its thread exits, before the slot is reissued.
func (t *Thread) Slot() int { return int(t.slot) }

// CPU returns the CPU the thread is currently assigned to.
func (t *Thread) CPU() int { return t.cpu }

// Affinity returns the CPU the thread is pinned to, or AffinityAny.
func (t *Thread) Affinity() int { return t.affinity }

// Migrations returns how many times the thread has changed CPUs.
func (t *Thread) Migrations() uint64 { return t.migrations }

// Name returns the thread's human-readable name.
func (t *Thread) Name() string { return t.name }

// State returns the thread's current scheduling state.
func (t *Thread) State() State { return t.state }

// CPUTime returns the total simulated CPU time the thread has consumed.
func (t *Thread) CPUTime() sim.Duration { return t.cpuTime }

// CPUCycles returns the total simulated cycles the thread has consumed.
func (t *Thread) CPUCycles() sim.Cycles {
	return sim.DurationToCycles(t.cpuTime, t.kern.cfg.ClockRate)
}

// Dispatched returns the number of run segments the thread has received.
func (t *Thread) Dispatched() uint64 { return t.dispatched }

// BlockedCount returns the number of times the thread voluntarily blocked.
func (t *Thread) BlockedCount() uint64 { return t.blockedCount }

// RunSinceBlock returns the CPU time consumed since the thread last blocked
// voluntarily. The controller's interactive heuristic estimates proportion
// from "the amount of time they typically run before blocking" (§1).
func (t *Thread) RunSinceBlock() sim.Duration { return t.runSinceBlock }

// Runnable reports whether the thread is ready or running.
func (t *Thread) Runnable() bool {
	return t.state == StateReady || t.state == StateRunning
}

func (t *Thread) String() string {
	return fmt.Sprintf("%s#%d[%s]", t.name, t.id, t.state)
}

// WaitQueue is a FIFO list of blocked threads. It is the kernel's basic
// blocking primitive; queues and mutexes are built on top of it.
type WaitQueue struct {
	name string
	// kind distinguishes a queue's embedded not-full/not-empty halves so
	// their trace labels can be derived lazily instead of concatenated at
	// construction (two string allocations per queue, paid by every
	// pooled session pipeline otherwise).
	kind wqKind
	// inline backs the waiters slice for the common one-or-two-waiter
	// case (a pipeline queue has at most one producer and one consumer),
	// so parking a thread allocates nothing.
	inline  [2]*Thread
	waiters []*Thread
}

type wqKind uint8

const (
	wqPlain wqKind = iota
	wqNotFull
	wqNotEmpty
)

// NewWaitQueue returns an empty named wait queue.
func NewWaitQueue(name string) *WaitQueue { return &WaitQueue{name: name} }

// Label returns the trace name, deriving the queue-half suffix on demand —
// only a tracer that logs block events pays for the string.
func (wq *WaitQueue) Label() string {
	switch wq.kind {
	case wqNotFull:
		return wq.name + ".notFull"
	case wqNotEmpty:
		return wq.name + ".notEmpty"
	}
	return wq.name
}

// Len returns the number of parked threads.
func (wq *WaitQueue) Len() int { return len(wq.waiters) }

func (wq *WaitQueue) push(t *Thread) {
	if wq.waiters == nil {
		wq.waiters = wq.inline[:0]
	}
	wq.waiters = append(wq.waiters, t)
}

func (wq *WaitQueue) pop() *Thread {
	if len(wq.waiters) == 0 {
		return nil
	}
	t := wq.waiters[0]
	copy(wq.waiters, wq.waiters[1:])
	wq.waiters[len(wq.waiters)-1] = nil // clear the vacated tail slot
	wq.waiters = wq.waiters[:len(wq.waiters)-1]
	return t
}

func (wq *WaitQueue) remove(t *Thread) bool {
	for i, w := range wq.waiters {
		if w == t {
			copy(wq.waiters[i:], wq.waiters[i+1:])
			wq.waiters[len(wq.waiters)-1] = nil // clear the vacated tail slot
			wq.waiters = wq.waiters[:len(wq.waiters)-1]
			return true
		}
	}
	return false
}
