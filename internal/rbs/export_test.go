package rbs

import "repro/internal/kernel"

// LazyRollPending reports whether t holds a lazy reservation — queued,
// registered and off the boundary wheel — whose period ended by its
// shard's drained instant, so that the next catch-up rolls it.
func LazyRollPending(p *Policy, t *kernel.Thread) bool {
	st, ok := t.Sched.(*state)
	if !ok || !st.queued || !st.registered || st.boundLevel != levelNone {
		return false
	}
	return p.shardOf(t).drained.Sub(st.periodStart) >= st.res.Period
}

// Stealable returns the thread Steal(from) would hand over, or nil.
func Stealable(p *Policy, from int) *kernel.Thread { return p.stealable(from) }
