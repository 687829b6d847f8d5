package rbs

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkReadyHeap times the ready heap alone in the storm's per-shard
// shape: 2,500 RMS reservations with budget, in five period classes. Each
// op removes the top, as the running thread's nap does, and pushes it
// back behind the rest of its class, as its wake does, so the sift's cost
// can be sized without running the whole storm.
func BenchmarkReadyHeap(b *testing.B) {
	periods := [...]sim.Duration{10, 20, 30, 50, 100} // the storm's, in ms
	p := &Policy{Discipline: RMS}
	var sh shard
	states := make([]state, 2500)
	for i := range states {
		st := &states[i]
		st.heapIdx, st.exhIdx = -1, -1
		st.registered = true
		st.res = Reservation{Proportion: 100, Period: periods[i%len(periods)] * sim.Millisecond}
		st.budget = st.res.Budget()
		st.seq = p.seqGen
		p.seqGen++
		p.readyPush(&sh, st)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := sh.ready.chunks[0][0].st
		p.readyRemove(&sh, st)
		st.seq = p.seqGen
		p.seqGen++
		p.readyPush(&sh, st)
	}
}
