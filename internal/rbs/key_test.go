package rbs

import (
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// keyRig is a Verify-mode dispatcher with a backlog on every CPU: per CPU,
// three reserved hogs and two unmanaged ones, all pinned, so a thread
// leaves its ready heap only by a nap, never by a steal.
type keyRig struct {
	t       *testing.T
	eng     *sim.Engine
	k       *kernel.Kernel
	p       *Policy
	threads []*kernel.Thread
	hits    map[string]int
}

func newKeyRig(t *testing.T, disc Discipline, cpus int) *keyRig {
	r := &keyRig{t: t, eng: sim.NewEngine(), p: New(), hits: map[string]int{}}
	r.p.Discipline = disc
	r.p.Verify = true
	cfg := kernel.DefaultConfig()
	cfg.CPUs = cpus
	r.k = kernel.New(r.eng, cfg, r.p)
	hog := kernel.ProgramFunc(func(*kernel.Thread, sim.Time) kernel.Op { return kernel.Compute(300_000) })
	for c := 0; c < cpus; c++ {
		for i := 0; i < 5; i++ {
			th := r.k.SpawnAffinity(fmt.Sprintf("c%d.%d", c, i), hog, c)
			if i < 3 {
				r.reserve(th, 200, sim.Duration(5<<i)*sim.Millisecond)
			}
			r.threads = append(r.threads, th)
		}
	}
	return r
}

func (r *keyRig) reserve(th *kernel.Thread, ppt int, period sim.Duration) {
	if err := r.p.SetReservation(th, Reservation{Proportion: ppt, Period: period}); err != nil {
		r.t.Fatal(err)
	}
}

// checkKeys fails unless every ready entry holds its state's key and seq.
func (r *keyRig) checkKeys(after string) {
	r.t.Helper()
	for c := range r.p.shards {
		h := &r.p.shards[c].ready
		for i := 0; i < h.n; i++ {
			e := h.at(i)
			if key := r.p.readyKey(e.st); e.key != key || e.seq != e.st.seq {
				r.t.Fatalf("after %s at %v: %v at CPU %d ready slot %d is keyed (%d, %d), its state reads (%d, %d)",
					after, r.k.Now(), e.st.t, c, i, e.key, e.seq, key, e.st.seq)
			}
		}
	}
}

// pick returns the first thread, from the step-th on, that is in a ready
// heap and satisfies ok, or nil.
func (r *keyRig) pick(step int, ok func(*state) bool) *kernel.Thread {
	for i := range r.threads {
		th := r.threads[(step+i)%len(r.threads)]
		if st := stateOf(th); st.heapIdx >= 0 && ok(st) {
			return th
		}
	}
	return nil
}

// mutate applies the step's mutation to a ready state and counts the
// refresh point it reached when the state is still in a ready heap.
func (r *keyRig) mutate(step int) {
	registered := func(st *state) bool { return st.registered }
	var point string
	var th *kernel.Thread
	switch step % 4 {
	case 0: // period change
		if th = r.pick(step, registered); th != nil {
			point = "period"
			r.reserve(th, 400, stateOf(th).res.Period+sim.Millisecond)
		}
	case 1: // proportion change on the same period
		if th = r.pick(step, registered); th != nil {
			point = "proportion"
			st := stateOf(th)
			r.reserve(th, 600-st.res.Proportion%400, st.res.Period)
		}
	case 2:
		if th = r.pick(step, registered); th != nil {
			point = "unregister"
			r.p.Unregister(th)
		}
	case 3: // re-register an unmanaged thread
		if th = r.pick(step, func(st *state) bool { return !st.registered }); th != nil {
			r.reserve(th, 400, sim.Duration(3+step%7)*sim.Millisecond)
		}
	}
	if th == nil {
		return
	}
	r.checkKeys(fmt.Sprintf("mutation %d on %v", step%4, th))
	if point != "" && stateOf(th).heapIdx >= 0 {
		r.hits[point]++
	}
}

// exhaust spends the budget of a waiting ready state whose period ends
// before its CPU's next tick, if there is one: a 1‰ proportion leaves no
// budget after what it used, and the drain at that tick rolls the period
// and refills it (observe counts the refill). A running state would spend
// its refill at once.
func (r *keyRig) exhaust() {
	now, tick := r.k.Now(), r.k.Tick()
	nextTick := now.Add(tick - sim.Duration(int64(now)%int64(tick)))
	th := r.pick(0, func(st *state) bool {
		r.p.catchUp(st)
		return st.registered && st.t != r.k.CurrentOn(st.t.CPU()) &&
			st.used >= st.res.Period/PPT && r.p.periodEnd(st) < nextTick
	})
	if th != nil {
		r.reserve(th, 1, stateOf(th).res.Period)
		r.checkKeys(fmt.Sprintf("exhausting %v", th))
	}
}

// snap is what observe compares across a run window.
type snap struct {
	inHeap, exhausted, registered bool
	seq                           uint64
	periodStart                   sim.Time
}

func (r *keyRig) snapshot() []snap {
	s := make([]snap, len(r.threads))
	for i, th := range r.threads {
		st := stateOf(th)
		s[i] = snap{st.heapIdx >= 0, st.exhIdx >= 0, st.registered, st.seq, st.periodStart}
	}
	return s
}

// observe counts the refresh points the run window since before reached
// on its own: a rotate reassigns a ready unmanaged state's seq, a refill
// brings an exhausted state back under the same seq, and an EDF roll
// moves a ready registered state's period start.
func (r *keyRig) observe(before []snap) {
	for i, a := range r.snapshot() {
		b := before[i]
		switch {
		case !b.inHeap || !a.inHeap:
			if b.exhausted && a.inHeap && a.seq == b.seq {
				r.hits["refill"]++
			}
		case !b.registered && !a.registered && a.seq != b.seq:
			r.hits["rotate"]++
		case r.p.Discipline == EDF && b.registered && a.registered && a.seq == b.seq && a.periodStart != b.periodStart:
			r.hits["edf-roll"]++
		}
	}
}

// TestReadyKeyRefreshPoints drives every place a ready entry's cached key
// or seq can change, on a Verify-mode dispatcher under both disciplines on
// 1 and 4 CPUs:
//   - SetReservation with a period change, and with a proportion change;
//   - Unregister;
//   - an unmanaged thread's rotate at quantum expiry;
//   - an exhausted state refilled by rollDue at its period end;
//   - under EDF, the roll of a ready state.
//
// The machine first runs 100 ms at 60% reserved load, so the unmanaged
// threads run and rotate; then its reservations rise to 120% for 400 ms,
// so ready ones wait through their period ends, while a mutation lands
// every 5 ms and an exhaustion wherever one can be refilled. Every ready
// entry must hold its state's key and seq after each mutation and 100 µs
// run window (and Verify checks them at every Pick), and each point must
// have reached a state in a ready heap at least once.
func TestReadyKeyRefreshPoints(t *testing.T) {
	for _, disc := range []Discipline{RMS, EDF} {
		for _, cpus := range []int{1, 4} {
			name := map[Discipline]string{RMS: "RMS", EDF: "EDF"}[disc]
			t.Run(fmt.Sprintf("%s/cpus=%d", name, cpus), func(t *testing.T) {
				r := newKeyRig(t, disc, cpus)
				r.k.Start()
				for step := 0; step < 5000; step++ {
					if step == 1000 {
						for _, th := range r.threads {
							if st := stateOf(th); st.registered {
								r.reserve(th, 400, st.res.Period)
							}
						}
					}
					before := r.snapshot()
					r.eng.RunFor(100 * sim.Microsecond)
					r.checkKeys("run window")
					r.observe(before)
					if step >= 1000 {
						if step%50 == 0 {
							r.mutate(step / 50)
						}
						r.exhaust()
					}
				}
				r.k.Stop()
				points := []string{"period", "proportion", "unregister", "rotate", "refill"}
				if disc == EDF {
					points = append(points, "edf-roll")
				}
				for _, pt := range points {
					if r.hits[pt] == 0 {
						t.Errorf("refresh point %s never reached a ready state (hits %v)", pt, r.hits)
					}
				}
				t.Logf("hits: %v", r.hits)
			})
		}
	}
}
