package ctlplane

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// skipContract checks the precondition the skip path relies on (DESIGN.md
// §10.5) against the jobs themselves. On every shard whose re-homing gate
// is shut right now, each live entry's job is homed on that shard; on every
// shard whose refresh gate is shut, each live entry caches exactly its
// job's desire and allocation. The cached class must match always. It
// reports how many shards had each gate shut.
func skipContract(p *Plane) (homeShut, cacheShut int, err error) {
	migrations, primaries, writes := p.kern.Migrations(), p.ctl.PrimaryChanges(), p.ctl.OutOfPassWrites()
	for _, s := range p.shards {
		home := migrations == s.migrations && primaries == s.primaries
		cache := writes == s.writes
		if home {
			homeShut++
		}
		if cache {
			cacheShut++
		}
		for _, e := range s.list {
			if e.removed {
				continue
			}
			j := e.job
			name := j.Thread().Name()
			class := j.Class()
			if e.adaptive != class.Adaptive() || e.realRate != (class == core.RealRate) {
				return 0, 0, fmt.Errorf("shard %d: job %q is %s, entry caches adaptive=%v realRate=%v",
					s.id, name, class, e.adaptive, e.realRate)
			}
			if home {
				if h := p.homeOf(j); h != s.id {
					return 0, 0, fmt.Errorf("shard %d: re-homing gate shut but job %q is homed on shard %d", s.id, name, h)
				}
			}
			if cache && (int(e.desired) != j.Desired() || int(e.allocated) != j.Allocated()) {
				return 0, 0, fmt.Errorf("shard %d: refresh gate shut but job %q caches desire/allocation %d/%d, job holds %d/%d",
					s.id, name, e.desired, e.allocated, j.Desired(), j.Allocated())
			}
		}
	}
	return homeShut, cacheShut, nil
}

// actuationFaults drops every 7th actuation and delays every 11th.
type actuationFaults struct{ n int }

func (f *actuationFaults) PerturbPressure(_ string, _ sim.Time, p float64) float64 { return p }

func (f *actuationFaults) ActuationFault(string, sim.Time) (drop, delay bool) {
	f.n++
	return f.n%7 == 0, f.n%11 == 0
}

// cycle returns a program that alternates compute and sleep; after limit
// ops (0: never) it exits.
func cycle(cycles sim.Cycles, nap sim.Duration, limit int) kernel.Program {
	ops := [2]kernel.Op{kernel.Compute(cycles), kernel.Sleep(nap)}
	exit := kernel.Exit()
	var i int
	return kernel.ProgramFunc(func(*kernel.Thread, sim.Time) kernel.Op {
		if limit > 0 && i >= limit {
			return exit
		}
		op := ops[i%2]
		i++
		return op
	})
}

// TestGatedSkipPathMatchesPolled is the differential check for the
// counter gates: a gated walk computes what a walk that re-homes and
// reloads every entry would, exactly when every shard whose gates are shut
// already has every entry at home and every cache equal to its job. The
// ticks are driven by hand between slices of machine time, over churn,
// work-pull migrations, primary-member exits, Renegotiate and actuation
// faults, and the contract is checked before every shard tick. On one CPU
// nothing migrates, so a primary change alone must re-open the re-homing
// gate (homes hash the primary's thread ID). The arms are named for the
// exit path they run, eager teardown at the exit (core.New's exit hook).
func TestGatedSkipPathMatchesPolled(t *testing.T) {
	for _, cpus := range []int{1, 2, 4, 8} {
		for _, shards := range []int{max(cpus, 2), 3} {
			t.Run(fmt.Sprintf("cpus=%d/shards=%d/eager=true", cpus, shards), func(t *testing.T) {
				gatedRun(t, cpus, shards)
			})
		}
	}
}

func gatedRun(t *testing.T, cpus, shards int) {
	r := newRigCfg(machine(cpus), core.Config{Faults: &actuationFaults{}},
		Config{Mode: EventDriven, Shards: shards, MaxStaleness: 40 * sim.Millisecond})

	// Pinned duty-cycle hogs keep every CPU's queue moving, so idle CPUs
	// pull the unpinned jobs back and forth.
	for c := 0; c < cpus; c++ {
		r.ctl.AddMiscellaneous(r.kern.SpawnAffinity("hog", cycle(1_600_000, 4*sim.Millisecond, 0), c))
	}
	var wanderers []*kernel.Thread
	for i := 0; i < 2*cpus; i++ {
		th := r.kern.Spawn(fmt.Sprintf("wanderer%d", i), cycle(600_000, 3*sim.Millisecond, 0))
		r.reg.Register(th, &pulseMetric{})
		r.ctl.AddRealRate(th, 0)
		wanderers = append(wanderers, th)
	}
	var reserved []*core.Job
	for i := 0; i < 2; i++ {
		j, err := r.ctl.AddRealTime(r.kern.Spawn(fmt.Sprintf("rt%d", i), cycle(200_000, 10*sim.Millisecond, 0)), 50, 10*sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		reserved = append(reserved, j)
	}
	r.addPipeline("pipe", 128)

	// addTeam admits a job whose primary exits early, handing the job to
	// its second member: a primary change.
	teams := 0
	addTeam := func() {
		teams++
		j := r.ctl.AddMiscellaneous(r.kern.Spawn(fmt.Sprintf("lead%d", teams), cycle(300_000, 2*sim.Millisecond, 2+teams%5)))
		r.ctl.AddMember(j, r.kern.Spawn(fmt.Sprintf("crew%d", teams), cycle(300_000, 5*sim.Millisecond, 40)))
	}
	for i := 0; i < cpus; i++ {
		addTeam()
	}
	r.kern.Start()

	var homeShut, cacheShut, checks int
	iv := r.ctl.Config().Interval
	for round := 0; round < 300; round++ {
		switch {
		case round%3 == 2:
			// Back-to-back epochs: nothing runs between the ticks, so the
			// gates can only have been re-opened by the previous tick.
		case round%7 == 0:
			r.eng.RunFor(iv / 4)
		default:
			r.eng.RunFor(iv)
		}
		switch round % 10 {
		case 1:
			addTeam()
		case 4:
			rt := reserved[(round/10)%len(reserved)]
			if err := r.ctl.Renegotiate(rt, 30+(round/10)%4*10); err != nil {
				t.Fatalf("round %d: renegotiate: %v", round, err)
			}
		case 6:
			r.addMisc(1)
		case 8:
			// Churn: retire the oldest live wanderer and replace it.
			th := wanderers[0]
			wanderers = append(wanderers[1:], nil)
			r.kern.Retire(th)
			nw := r.kern.Spawn(fmt.Sprintf("wanderer-r%d", round), cycle(600_000, 3*sim.Millisecond, 0))
			r.reg.Register(nw, &pulseMetric{})
			r.ctl.AddRealRate(nw, 0)
			wanderers[len(wanderers)-1] = nw
		}
		now := r.kern.Now()
		for _, s := range r.plane.shards {
			h, c, err := skipContract(r.plane)
			if err != nil {
				t.Fatalf("round %d, before shard %d's tick: %v", round, s.id, err)
			}
			homeShut += h
			cacheShut += c
			checks += len(r.plane.shards)
			r.plane.tick(s, now)
		}
	}

	// The check must have seen both sides of both gates, and the machine
	// must have done everything the gates exist for.
	var handoffs uint64
	for _, st := range r.plane.Stats() {
		handoffs += st.Handoffs
	}
	switch {
	case handoffs == 0 || (cpus > 1 && r.kern.Migrations() == 0):
		t.Fatalf("migrations %d, handoffs %d: rig exercised no re-homing", r.kern.Migrations(), handoffs)
	case r.ctl.PrimaryChanges() == 0:
		t.Fatal("no primary change: rig exercised no primary-member exit")
	case r.ctl.Health().ActuationsDropped == 0 || r.ctl.Health().ActuationsDelayed == 0:
		t.Fatalf("actuation faults not exercised: %+v", r.ctl.Health())
	case homeShut == 0 || homeShut == checks:
		t.Fatalf("re-homing gate shut at %d of %d shard checks: want both states", homeShut, checks)
	case cacheShut == 0 || cacheShut == checks:
		t.Fatalf("refresh gate shut at %d of %d shard checks: want both states", cacheShut, checks)
	}
}

// TestEntryFitsCacheLine pins the skip path's memory footprint: a skipped
// visit reads one entry, and every entry the slab hands out must lie
// within one 64-byte cache line.
func TestEntryFitsCacheLine(t *testing.T) {
	size := unsafe.Sizeof(entry{})
	if size > 64 {
		t.Fatalf("entry is %d bytes, want ≤ 64", size)
	}
	p := &Plane{}
	for i := 0; i < 3*entrySlabSize; i++ {
		e := p.allocEntry()
		if off := uintptr(unsafe.Pointer(e)) % 64; off+size > 64 {
			t.Fatalf("entry %d at line offset %d spans two cache lines (size %d)", i, off, size)
		}
	}
}
