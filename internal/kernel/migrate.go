package kernel

import "repro/internal/sim"

// AffinityAny marks a thread as runnable on every CPU; see Thread.Affinity.
const AffinityAny = -1

// Migrator is the placement and migration seam of a multi-CPU machine.
// The kernel owns the mechanism (reassigning a thread's CPU, accounting,
// tracing); the Migrator owns the policy: where a new thread lands, and
// where an idle CPU pulls work from. On a single-CPU machine it is never
// consulted.
//
// Implementations run synchronously inside dispatch and spawn paths; they
// must be deterministic (no wall clock, no global randomness) so simulated
// schedules stay replayable.
type Migrator interface {
	// Name identifies the migrator in traces and test output.
	Name() string
	// Place returns the CPU for a thread entering the machine with no
	// affinity pin. It is called before the thread is enqueued anywhere.
	Place(t *Thread, k *Kernel) int
	// Pull selects and removes (via Policy.Steal) a thread from another
	// CPU's run queue on behalf of the idle CPU, returning nil when no
	// work can move. The kernel completes the migration: it reassigns the
	// thread and re-enqueues it on the idle CPU.
	Pull(idle int, now sim.Time, k *Kernel) *Thread
}

// WorkPull is the default migrator: round-robin initial placement and
// work-pulling on idle — an idle CPU scans its peers in ring order and
// steals the first migratable runnable thread the policy will part with.
// This is the classic work-conserving baseline: no CPU idles while another
// has a queue of unpinned ready threads.
type WorkPull struct {
	nextPlace int
}

// Name implements Migrator.
func (w *WorkPull) Name() string { return "work-pull" }

// Place implements Migrator: pure round-robin over the CPUs, which spreads
// an initial taskset evenly; transient imbalance is corrected by Pull.
func (w *WorkPull) Place(t *Thread, k *Kernel) int {
	c := w.nextPlace
	w.nextPlace = (w.nextPlace + 1) % k.NumCPUs()
	return c
}

// Pull implements Migrator: scan the other CPUs starting after the idle
// one (ring order keeps the victim choice fair and deterministic) and take
// the first thread the policy yields.
func (w *WorkPull) Pull(idle int, now sim.Time, k *Kernel) *Thread {
	n := k.NumCPUs()
	for i := 1; i < n; i++ {
		victim := (idle + i) % n
		if t := k.Policy().Steal(victim, now); t != nil {
			return t
		}
	}
	return nil
}

// StealCandidate scans a per-CPU queue in index order and returns the
// first thread that is Movable past the excluded threads. The caller
// dequeues the result.
func StealCandidate(q []*Thread, exclude ...*Thread) *Thread {
	for _, t := range q {
		if Movable(t, exclude...) {
			return t
		}
	}
	return nil
}

// Movable reports whether a queued thread may migrate off its CPU:
// non-nil, not pinned, and not one of the excluded threads (the CPU's
// current occupant, a policy's cached winner). It is the one definition
// of movability the policies' Steal implementations share.
func Movable(t *Thread, exclude ...*Thread) bool {
	if t == nil || t.affinity != AffinityAny {
		return false
	}
	for _, x := range exclude {
		if t == x {
			return false
		}
	}
	return true
}
