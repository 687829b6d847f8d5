package realrate

import (
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
// Compute, Produce, Consume, Sleep, SleepUntil, Lock, Unlock, Wait, Yield,
// and Exit.
type Action struct {
	op kernel.Op
}

// Compute burns n simulated CPU cycles.
func Compute(n int64) Action {
	return Action{kernel.OpCompute{Cycles: sim.Cycles(n)}}
}

// ComputeFor burns the CPU for approximately d of simulated time: d is
// converted to cycles of the simulated 400 MHz clock, which every System
// shares.
func ComputeFor(d time.Duration) Action {
	c := sim.DurationToCycles(sim.FromStd(d), kernel.ClockRate)
	return Action{kernel.OpCompute{Cycles: c}}
}

// Produce enqueues n bytes into q, blocking while the queue lacks space.
func Produce(q *Queue, n int64) Action {
	return Action{kernel.OpProduce{Queue: q.q, Bytes: n}}
}

// Consume dequeues n bytes from q, blocking while the data is not there.
func Consume(q *Queue, n int64) Action {
	return Action{kernel.OpConsume{Queue: q.q, Bytes: n}}
}

// Sleep blocks the thread for at least d (wakeups land on dispatch ticks).
func Sleep(d time.Duration) Action {
	return Action{kernel.OpSleep{D: sim.FromStd(d)}}
}

// SleepUntil blocks the thread until the given simulated instant.
func SleepUntil(at time.Duration) Action {
	return Action{kernel.OpSleepUntil{At: sim.Time(at)}}
}

// Lock acquires m, blocking while another thread holds it.
func Lock(m *Mutex) Action { return Action{kernel.OpLock{M: m.m}} }

// Unlock releases m; unlocking a mutex the thread does not hold panics.
func Unlock(m *Mutex) Action { return Action{kernel.OpUnlock{M: m.m}} }

// Wait parks the thread on w until another thread calls w.WakeOne.
func Wait(w *WaitQueue) Action { return Action{kernel.OpBlock{WQ: w.wq}} }

// Yield releases the CPU without blocking.
func Yield() Action { return Action{kernel.OpYield{}} }

// Exit retires the thread.
func Exit() Action { return Action{kernel.OpExit{}} }

// Ops is a reusable action buffer for allocation-sensitive programs. The
// package-level constructors (Compute, Produce, Consume, ...) box a fresh
// kernel operation on every call, so a program stepped millions of times
// across an open-loop storm pays one small heap allocation per step just
// for the box. An Ops value owns one operation of each kind and its
// methods return Actions backed by that storage, making the steady-state
// step cost zero allocations.
//
// One Ops belongs to one thread's program. An Action returned by a method
// stays valid until the same method is called again — exactly the
// lifetime of one program step, since the kernel never holds an operation
// past the step that completes it. Yield and Exit have no parameters to
// carry, so the package-level constructors are already allocation-free
// for them.
type Ops struct {
	compute    kernel.OpCompute
	produce    kernel.OpProduce
	consume    kernel.OpConsume
	sleep      kernel.OpSleep
	sleepUntil kernel.OpSleepUntil
}

// Compute is the reusable form of the package-level Compute.
func (o *Ops) Compute(n int64) Action {
	o.compute.Cycles = sim.Cycles(n)
	return Action{&o.compute}
}

// Produce is the reusable form of the package-level Produce.
func (o *Ops) Produce(q *Queue, n int64) Action {
	o.produce.Queue, o.produce.Bytes = q.q, n
	return Action{&o.produce}
}

// Consume is the reusable form of the package-level Consume.
func (o *Ops) Consume(q *Queue, n int64) Action {
	o.consume.Queue, o.consume.Bytes = q.q, n
	return Action{&o.consume}
}

// Sleep is the reusable form of the package-level Sleep.
func (o *Ops) Sleep(d time.Duration) Action {
	o.sleep.D = sim.FromStd(d)
	return Action{&o.sleep}
}

// SleepUntil is the reusable form of the package-level SleepUntil.
func (o *Ops) SleepUntil(at time.Duration) Action {
	o.sleepUntil.At = sim.Time(at)
	return Action{&o.sleepUntil}
}

// programAdapter is the kernel-facing view of a Thread handle: a type
// conversion of the handle, so bridging the public Program to the
// kernel's interface costs no second object and no back-pointer.
type programAdapter Thread

func (a *programAdapter) Next(t *kernel.Thread, now sim.Time) kernel.Op {
	th := (*Thread)(a)
	if th.sys.faults != nil && th.sys.faults.ThreadStuck(t.Name(), now) {
		return &th.sys.stuckOp
	}
	act := th.prog.Next(th, time.Duration(now))
	if act.op == nil {
		panic("realrate: program returned zero Action; use Exit() to retire a thread")
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
