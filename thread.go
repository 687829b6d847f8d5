package realrate

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// Thread is a handle to a simulated thread under real-rate scheduling.
//
// The handle outlives the thread: once the program exits (or Kill is
// called), the kernel slot behind it may be recycled and reissued to a
// later spawn, so the handle freezes the thread's final statistics at exit
// and answers every read-only accessor from the frozen copy. Mutating an
// exited handle — Renegotiate, SetImportance — panics deterministically,
// naming the retired slot generation, instead of corrupting whatever
// thread now occupies the slot. Kill on an exited handle is a no-op.
type Thread struct {
	sys *System
	t   *kernel.Thread
	job *core.Job
	// prog is the public program. The handle itself is the program the
	// kernel runs (see programAdapter), so one allocation covers both.
	prog Program

	// name is immutable for the thread's whole life, cached so accessors
	// never need the (possibly reissued) kernel slot.
	name string

	// sloWake is the instant the open wake→dispatch SLO edge opened; it
	// lives on the handle so the per-dispatch tap touches no maps and
	// hashes no strings (slo.go).
	sloWake sim.Time

	// The exit* fields hold the final statistics frozen when the exit
	// hook retires the handle (see exited).
	exitCPUTime    time.Duration
	exitMigrations uint64
	exitPeriod     time.Duration
	exitPressure   float64
	exitImportance float64
	exitCPU        int32
	exitAlloc      int32
	exitDesired    int32

	// gen snapshots the kernel slot's generation at spawn; a mismatch
	// against t.Gen() means the slot was recycled under a live handle —
	// a lifecycle bug the guarded mutators turn into a deterministic
	// panic rather than an action against a stranger.
	gen uint32

	// pinned is immutable, like name.
	pinned bool
	// exited flips when the exit hook retires the handle.
	exited       bool
	exitSquished bool
	sloPending   bool
	// exitClass is the frozen class, core.Class+1, or exitUnmanaged for a
	// thread without a job; exitDegraded is the frozen core.DegradeLevel.
	exitClass    uint8
	exitDegraded uint8
}

// exitUnmanaged is the exitClass of a handle that had no controller job.
const exitUnmanaged = 0

// spawn creates the kernel thread wired to the public program and links
// the handle from the kernel thread for O(1) kernel-thread lookups.
func (s *System) spawn(name string, prog Program, affinity int) *Thread {
	if len(s.thSlab) == 0 {
		s.thSlab = make([]Thread, 256)
	}
	th := &s.thSlab[0]
	s.thSlab = s.thSlab[1:]
	*th = Thread{sys: s, prog: prog, name: name, pinned: affinity != kernel.AffinityAny}
	th.t = s.kern.SpawnAffinity(name, (*programAdapter)(th), affinity)
	th.gen = th.t.Gen()
	th.t.User = th
	if s.slo != nil {
		// The spawn's own wake edge traced before the handle was linked;
		// open it here so the first dispatch still yields a sample.
		th.sloPending, th.sloWake = true, s.kern.Now()
	}
	return th
}

// handleOf returns the public handle of a kernel thread, or nil for a
// thread with none: a control-plane thread, an exited thread, or a
// rejected spawn.
func handleOf(t *kernel.Thread) *Thread {
	th, _ := t.User.(*Thread)
	return th
}

// retire freezes the thread's final statistics on the handle and severs
// its links to the kernel slot and controller job, both of which may be
// recycled to a later spawn. Runs inside the exit hook, before the slot
// returns to the kernel's free list, so every value read here is still
// this thread's.
func (th *Thread) retire(t *kernel.Thread) {
	th.exited = true
	th.exitCPU = int32(t.CPU())
	th.exitCPUTime = time.Duration(t.CPUTime())
	th.exitMigrations = t.Migrations()
	if j := th.job; j != nil {
		th.exitAlloc = int32(j.Allocated())
		th.exitDesired = int32(j.Desired())
		th.exitPeriod = time.Duration(j.Period())
		th.exitPressure = j.Pressure()
		th.exitSquished = j.Squished()
		th.exitClass = uint8(j.Class()) + 1
		th.exitDegraded = uint8(j.Degraded())
		th.exitImportance = j.Importance()
	}
	th.job = nil
	th.prog = nil // release the program for the collector
}

// threadExited is the kernel exit hook, installed after core.New's: it
// freezes the handle, tears the thread's controller state down through
// ThreadExited (a pooled slot can be reissued before the next control
// epoch, by which time every stale reference must be gone), and tells
// observers the thread is over. Threads removed by removeThread
// (rejected spawns) were unlinked before retirement, so they never ran
// and never surface an OnExit.
func (s *System) threadExited(t *kernel.Thread, now sim.Time) {
	th := handleOf(t)
	if th != nil {
		t.User = nil
		th.sloPending = false // drop any open wake edge with the handle
		// Freeze before the controller teardown below: it may scrub and
		// pool the job object the frozen values are read from.
		th.retire(t)
	}
	// Unlink progress sources here, not only in the controller's teardown:
	// under a baseline policy no controller runs, so without this an
	// exited paced/real-rate thread would leak its registration forever.
	s.reg.Unregister(t)
	if s.ctl != nil {
		s.ctl.ThreadExited(t)
	}
	if th == nil {
		return
	}
	for _, o := range s.hub.obs {
		o.OnExit(time.Duration(now), th)
	}
}

// removeThread undoes a spawn whose registration failed: the kernel thread
// is retired (so a rejected program does not keep running in the leftover
// CPU), any progress sources registered before the failure are unlinked,
// and the public handle is unlinked. Unlinking happens before Retire so
// the exit hook does not announce a thread that never publicly existed.
func (s *System) removeThread(th *Thread) {
	th.t.User = nil
	s.reg.Unregister(th.t)
	s.kern.Retire(th.t)
}

// Kill retires the thread immediately, as if its program had returned
// Exit(): it is removed from the scheduler, any pending sleep wakeup is
// canceled, and the partial run segment (if it was on the CPU) is charged.
// The exit hook tears its job down at once, exactly as for a natural
// exit, so any admitted reservation is free for the next admission before
// Kill returns. Killing an exited thread is a no-op.
//
// Kill is the remove half of admission churn (Spawn/Kill/Renegotiate
// cycles). Call it from outside the simulation or from a timer callback
// (System.After, System.Every); a program retiring itself must return
// Exit() instead. A killed thread that holds a Mutex never releases it.
func (th *Thread) Kill() {
	if th.exited {
		return
	}
	th.assertLive("Kill")
	th.sys.kern.Retire(th.t)
}

// assertLive panics when a handle that believes itself live points at a
// kernel slot whose generation has moved on — a recycled slot reissued to
// a different thread. The panic is deterministic (it names the handle and
// both generations) where the pre-generation failure mode was silent
// corruption of the slot's new occupant.
func (th *Thread) assertLive(op string) {
	if g := th.t.Gen(); g != th.gen {
		panic(fmt.Sprintf("realrate: %s on thread %q whose kernel slot was recycled (handle generation %d, slot now %d)", op, th.name, th.gen, g))
	}
}

// Exited reports whether the thread has exited (voluntarily or by Kill).
// An exited handle keeps serving its frozen final statistics even after
// the underlying kernel slot is recycled to a later spawn; mutating calls
// (Renegotiate, SetImportance) panic instead.
func (th *Thread) Exited() bool { return th.exited }

// Name returns the thread's name.
func (th *Thread) Name() string { return th.name }

// CPU returns the CPU the thread is currently assigned to (always 0 on a
// single-CPU machine); for an exited thread, the CPU it last ran on.
func (th *Thread) CPU() int {
	if th.exited {
		return int(th.exitCPU)
	}
	return th.t.CPU()
}

// Pinned reports whether the thread was spawned with the Affinity option.
func (th *Thread) Pinned() bool { return th.pinned }

// Migrations returns how many times work-pull moved the thread between
// CPUs.
func (th *Thread) Migrations() uint64 {
	if th.exited {
		return th.exitMigrations
	}
	return th.t.Migrations()
}

// CPUTime returns the total simulated CPU the thread has consumed.
func (th *Thread) CPUTime() time.Duration {
	if th.exited {
		return th.exitCPUTime
	}
	return time.Duration(th.t.CPUTime())
}

// State returns the scheduling state as a string (ready, running, blocked,
// sleeping, exited).
func (th *Thread) State() string {
	if th.exited {
		return kernel.StateExited.String()
	}
	return th.t.State().String()
}

// Allocation returns the thread's current proportion in ppt (0 for
// unmanaged threads); for an exited thread, its final proportion.
func (th *Thread) Allocation() int {
	if th.exited {
		return int(th.exitAlloc)
	}
	if th.job == nil {
		return 0
	}
	return th.job.Allocated()
}

// Desired returns the pre-squish proportion the controller last computed.
func (th *Thread) Desired() int {
	if th.exited {
		return int(th.exitDesired)
	}
	if th.job == nil {
		return 0
	}
	return th.job.Desired()
}

// Period returns the thread's current period (0 for unmanaged threads).
func (th *Thread) Period() time.Duration {
	if th.exited {
		return th.exitPeriod
	}
	if th.job == nil {
		return 0
	}
	return time.Duration(th.job.Period())
}

// Pressure returns the controller's cumulative progress pressure Q_t for
// the thread.
func (th *Thread) Pressure() float64 {
	if th.exited {
		return th.exitPressure
	}
	if th.job == nil {
		return 0
	}
	return th.job.Pressure()
}

// Degraded returns the thread's rung on the graceful-degradation ladder:
// "real-rate" when healthy (and for every non-real-rate class), "fallback"
// or "misc" after the watchdog demoted it, and "" for unmanaged threads.
func (th *Thread) Degraded() string {
	if th.exited {
		if th.exitClass == exitUnmanaged {
			return ""
		}
		return core.DegradeLevel(th.exitDegraded).String()
	}
	if th.job == nil {
		return ""
	}
	return th.job.Degraded().String()
}

// Class returns the taxonomy class name, or "unmanaged".
func (th *Thread) Class() string {
	if th.exited {
		if th.exitClass == exitUnmanaged {
			return "unmanaged"
		}
		return core.Class(th.exitClass - 1).String()
	}
	if th.job == nil {
		return "unmanaged"
	}
	return th.job.Class().String()
}

// Importance returns the weighted-fair-share weight (0 for unmanaged
// threads). Under the overload governor's shed rung, miscellaneous
// threads are killed in ascending importance order.
func (th *Thread) Importance() float64 {
	if th.exited {
		return th.exitImportance
	}
	if th.job == nil {
		return 0
	}
	return th.job.Importance()
}

// SetImportance sets the weighted-fair-share weight (default 1). Higher
// importance loses less under overload but can never starve others.
// Setting importance on an exited thread panics: its job is gone, and its
// kernel slot may already belong to a stranger.
func (th *Thread) SetImportance(w float64) {
	if th.exited {
		panic(fmt.Sprintf("realrate: SetImportance on exited thread %q (slot generation %d retired)", th.name, th.gen))
	}
	if th.job == nil {
		panic("realrate: cannot set importance: thread has no controller-managed job (unmanaged, or a baseline policy without the feedback controller)")
	}
	th.assertLive("SetImportance")
	th.sys.ctl.SetImportance(th.job, w)
}

// Squished reports whether overload reduced the thread below its desired
// allocation in the last control interval.
func (th *Thread) Squished() bool {
	if th.exited {
		return th.exitSquished
	}
	if th.job == nil {
		return false
	}
	return th.job.Squished()
}

// Renegotiate changes a real-time (or aperiodic real-time) thread's
// reserved proportion, subject to admission control. Applications
// typically call it from a quality-exception handler to lower their
// requirements under overload. Renegotiating an exited thread panics: its
// reservation is gone, and its kernel slot may already belong to a
// stranger.
func (th *Thread) Renegotiate(proportion int) error {
	if th.exited {
		panic(fmt.Sprintf("realrate: Renegotiate on exited thread %q (slot generation %d retired)", th.name, th.gen))
	}
	if th.job == nil {
		panic("realrate: cannot renegotiate: thread has no controller-managed job (unmanaged, or a baseline policy without the feedback controller)")
	}
	th.assertLive("Renegotiate")
	err := th.sys.ctl.Renegotiate(th.job, proportion)
	th.sys.fireAdmission(AdmissionEvent{
		Time: th.sys.Now(), Thread: th, Requested: proportion,
		Period: th.Period(), Accepted: err == nil, Err: err,
	})
	return err
}
