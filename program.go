package realrate

import (
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// Program is the behavior of a simulated thread: a state machine that
// returns one Action at a time. Next is called when the previous action
// completes; return Exit() to retire the thread.
type Program interface {
	Next(t *Thread, now time.Duration) Action
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(t *Thread, now time.Duration) Action

// Next calls the function.
func (f ProgramFunc) Next(t *Thread, now time.Duration) Action { return f(t, now) }

// Action is one operation of a thread program. Construct actions with
// Compute, ComputeFor, Produce, Consume, Sleep, SleepUntil, Lock, Unlock,
// Wait, Yield, and Exit. An Action is a small value: building and
// returning one never allocates. The zero Action is not an operation; a
// program that returns it panics.
type Action struct {
	op kernel.Op
}

// Compute burns n simulated CPU cycles.
func Compute(n int64) Action { return Action{kernel.Compute(sim.Cycles(n))} }

// ComputeFor burns the CPU for approximately d of simulated time: d is
// converted to cycles of the simulated 400 MHz clock, which every System
// shares.
func ComputeFor(d time.Duration) Action {
	return Action{kernel.Compute(sim.DurationToCycles(sim.FromStd(d), kernel.ClockRate))}
}

// Produce enqueues n bytes into q, blocking while the queue lacks space.
func Produce(q *Queue, n int64) Action { return Action{kernel.Produce(q.q, n)} }

// Consume dequeues n bytes from q, blocking while the data is not there.
func Consume(q *Queue, n int64) Action { return Action{kernel.Consume(q.q, n)} }

// Sleep blocks the thread for at least d (wakeups land on dispatch ticks).
func Sleep(d time.Duration) Action { return Action{kernel.Sleep(sim.FromStd(d))} }

// SleepUntil blocks the thread until the given simulated instant.
func SleepUntil(at time.Duration) Action { return Action{kernel.SleepUntil(sim.Time(at))} }

// Lock acquires m, blocking while another thread holds it.
func Lock(m *Mutex) Action { return Action{kernel.Lock(m.m)} }

// Unlock releases m; unlocking a mutex the thread does not hold panics.
func Unlock(m *Mutex) Action { return Action{kernel.Unlock(m.m)} }

// Wait parks the thread on w until another thread calls w.WakeOne.
func Wait(w *WaitQueue) Action { return Action{kernel.Block(w.wq)} }

// Yield releases the CPU without blocking.
func Yield() Action { return Action{kernel.Yield()} }

// Exit retires the thread.
func Exit() Action { return Action{kernel.Exit()} }

// stuckOp is the spin burst every thread hijacked by a StuckThread fault
// emits: 1 ms of the simulated clock.
var stuckOp = kernel.Compute(sim.DurationToCycles(sim.Millisecond, kernel.ClockRate))

// programAdapter is the kernel-facing view of a Thread handle: a type
// conversion of the handle, so bridging the public Program to the
// kernel's interface costs no second object and no back-pointer.
type programAdapter Thread

func (a *programAdapter) Next(t *kernel.Thread, now sim.Time) kernel.Op {
	th := (*Thread)(a)
	if th.sys.faults != nil && th.sys.faults.ThreadStuck(t.Name(), now) {
		return stuckOp
	}
	act := th.prog.Next(th, time.Duration(now))
	if act.op == (kernel.Op{}) {
		panic(fmt.Sprintf("realrate: program of thread %q returned the zero Action; use Exit() to retire a thread", t.Name()))
	}
	return act.op
}

// HogProgram returns a program that computes forever in bursts of the
// given cycle count — the canonical CPU-bound load.
func HogProgram(burst int64) Program {
	return ProgramFunc(func(t *Thread, now time.Duration) Action {
		return Compute(burst)
	})
}
