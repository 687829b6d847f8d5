package kernel

import "repro/internal/sim"

// Program is the behavior of a simulated thread: a state machine that emits
// one operation at a time. Next is called whenever the previous operation
// has completed; returning Exit() retires the thread.
//
// Programs run "on the CPU" of the simulated machine: compute operations
// consume simulated cycles under the control of the scheduling policy, and
// queue/mutex/sleep operations are the analog of system calls.
type Program interface {
	Next(t *Thread, now sim.Time) Op
}

// ProgramFunc adapts a plain function to the Program interface.
type ProgramFunc func(t *Thread, now sim.Time) Op

// Next calls the function.
func (f ProgramFunc) Next(t *Thread, now sim.Time) Op { return f(t, now) }

// Op is one operation of a thread program: a kind and its operands, built
// by one constructor per kind (Compute, Produce, Consume, Sleep,
// SleepUntil, Lock, Unlock, Yield, Block, Exit). It is a plain value, so
// returning one never allocates and the kernel keeps its own copy while
// the operation is in progress.
//
// The zero Op is no operation: a thread holds it while its program must be
// asked for the next one, and a program that returns it panics.
type Op struct {
	kind opKind
	// n is the operand: the cycles still to burn (compute), the bytes to
	// move (produce, consume), the duration (sleep) or the instant
	// (sleep-until).
	n  int64
	q  *Queue
	m  *Mutex
	wq *WaitQueue
}

type opKind uint8

const (
	kindNone opKind = iota
	kindCompute
	kindProduce
	kindConsume
	kindSleep
	kindSleepUntil
	kindLock
	kindUnlock
	kindYield
	kindBlock
	kindExit
)

// Compute burns the given number of CPU cycles. A burst of zero or fewer
// cycles completes at once.
func Compute(c sim.Cycles) Op { return Op{kind: kindCompute, n: int64(c)} }

// Produce enqueues n bytes into q, blocking while the queue lacks space.
func Produce(q *Queue, n int64) Op { return Op{kind: kindProduce, n: n, q: q} }

// Consume dequeues n bytes from q, blocking while the queue lacks data.
func Consume(q *Queue, n int64) Op { return Op{kind: kindConsume, n: n, q: q} }

// Sleep blocks the thread for at least d; the wakeup is processed at the
// first timer interrupt at or after the deadline, as in the paper's
// do_timers().
func Sleep(d sim.Duration) Op { return Op{kind: kindSleep, n: int64(d)} }

// SleepUntil blocks the thread until at least the given instant. A
// deadline at or before the current time completes immediately.
func SleepUntil(at sim.Time) Op { return Op{kind: kindSleepUntil, n: int64(at)} }

// Lock acquires m, blocking while another thread holds it. Ownership is
// handed off directly to the first waiter on unlock (FIFO).
func Lock(m *Mutex) Op { return Op{kind: kindLock, m: m} }

// Unlock releases m. Unlocking a mutex the thread does not own panics:
// it is always a workload bug.
func Unlock(m *Mutex) Op { return Op{kind: kindUnlock, m: m} }

// Yield gives up the CPU without blocking; the thread stays runnable.
func Yield() Op { return Op{kind: kindYield} }

// Block parks the thread on a raw wait queue until another thread wakes
// it. It is the primitive behind interactive jobs waiting for "tty" input.
func Block(wq *WaitQueue) Op { return Op{kind: kindBlock, wq: wq} }

// Exit retires the thread.
func Exit() Op { return Op{kind: kindExit} }
