package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// napper sleeps for an hour at a time; quitter exits at its first
// dispatch.
var (
	napper = kernel.ProgramFunc(func(*kernel.Thread, sim.Time) kernel.Op {
		return kernel.Sleep(3600 * sim.Second)
	})
	quitter = kernel.ProgramFunc(func(*kernel.Thread, sim.Time) kernel.Op {
		return kernel.Exit()
	})
)

// TestReapGatedByExits pins the reap gate: the epoch reap scans only when
// the kernel counted an exit since its last scan, yet loses nothing. With
// no eager exit hook, an exited primary is reaped at the next epoch (a
// counted primary change), and so is a thread that had already exited
// when it joined a job after that scan.
func TestReapGatedByExits(t *testing.T) {
	r := newRig(core.Config{})
	lead := r.kern.Spawn("lead", quitter)
	crew := r.kern.Spawn("crew", napper)
	team := r.ctl.AddMiscellaneous(lead)
	r.ctl.AddMember(team, crew)
	r.ctl.AddMiscellaneous(r.kern.Spawn("bystander", napper))
	r.start()
	r.run(50 * sim.Millisecond)

	if team.Thread() != crew || len(team.Members()) != 1 {
		t.Fatalf("after the lead exited: primary %v, %d members; want crew alone", team.Thread(), len(team.Members()))
	}
	if got := r.ctl.PrimaryChanges(); got != 1 {
		t.Fatalf("primary changes = %d, want 1", got)
	}

	// A thread that exits after the reap has absorbed every counted exit,
	// then joins the controller: no exit is counted after it joins, so
	// only the join itself can schedule the scan that reaps it.
	late := r.kern.Spawn("late", quitter)
	r.run(50 * sim.Millisecond)
	if late.State() != kernel.StateExited {
		t.Fatalf("late thread %v, want exited", late.State())
	}
	jobs := len(r.ctl.Jobs())
	r.ctl.AddMiscellaneous(late)
	r.run(20 * sim.Millisecond)
	if _, ok := r.ctl.JobOf(late); ok {
		t.Fatal("an exited thread that joined after the last scan was never reaped")
	}
	if got := len(r.ctl.Jobs()); got != jobs {
		t.Fatalf("%d jobs after the reap, want %d", got, jobs)
	}
}

// TestGateCounters pins what moves the controller's gate counters: the
// eager exit path (ThreadExited, run from the exit hook) counts a primary
// change only when the primary left a surviving job, and admissions,
// bootstrap and Renegotiate count as out-of-pass writes while sampling
// epochs do not.
func TestGateCounters(t *testing.T) {
	r := newRig(core.Config{})
	r.kern.SetExitHook(func(th *kernel.Thread, _ sim.Time) { r.ctl.ThreadExited(th) })
	a, b := r.kern.Spawn("a", napper), r.kern.Spawn("b", napper)
	team := r.ctl.AddMiscellaneous(a)
	r.ctl.AddMember(team, b)
	rt, err := r.ctl.AddRealTime(r.kern.Spawn("rt", napper), 100, 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ctl.OutOfPassWrites(); got != 2 {
		t.Fatalf("out-of-pass writes after two admissions = %d, want 2", got)
	}
	r.start()
	r.run(100 * sim.Millisecond)
	if got := r.ctl.OutOfPassWrites(); got != 2 {
		t.Fatalf("sampling epochs moved out-of-pass writes to %d", got)
	}
	if err := r.ctl.Renegotiate(rt, 60); err != nil {
		t.Fatal(err)
	}
	if got := r.ctl.OutOfPassWrites(); got != 3 {
		t.Fatalf("out-of-pass writes after Renegotiate = %d, want 3", got)
	}

	r.kern.Retire(b) // a non-primary member: no change
	if got := r.ctl.PrimaryChanges(); got != 0 {
		t.Fatalf("primary changes after a member left = %d, want 0", got)
	}
	c := r.kern.Spawn("c", napper)
	r.ctl.AddMember(team, c)
	r.kern.Retire(a)
	if got := r.ctl.PrimaryChanges(); got != 1 || team.Thread() != c {
		t.Fatalf("primary changes = %d, primary %v; want 1 and c", got, team.Thread())
	}
	r.kern.Retire(c) // the job leaves with its last member: no change
	if got := r.ctl.PrimaryChanges(); got != 1 {
		t.Fatalf("primary changes after the job left = %d, want 1", got)
	}
}
