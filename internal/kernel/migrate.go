package kernel

// AffinityAny marks a thread as runnable on every CPU; see Thread.Affinity.
const AffinityAny = -1

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
// non-nil, not pinned, not being dispatched there, and not one of the
// excluded threads (the CPU's current occupant, a policy's cached
// winner). It is the one definition of movability the policies' Steal
// implementations share.
func Movable(t *Thread, exclude ...*Thread) bool {
	if t == nil || t.affinity != AffinityAny || t.kern.cpus[t.cpu].dispatching == t {
		return false
	}
	for _, x := range exclude {
		if t == x {
			return false
		}
	}
	return true
}
