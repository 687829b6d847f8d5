package core_test

import (
	"slices"
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

// TestExitTearsDownAtOnce pins the one teardown path on a rig that
// installs no exit hook of its own and runs no control epoch: the hook
// core.New installs takes an exiting primary out of its job at the exit
// (a counted primary change), and a thread that had already exited when
// it joined, as a job or as a member, is torn down inside the join.
func TestExitTearsDownAtOnce(t *testing.T) {
	r := newRig(core.Config{})
	var kinds []core.EventKind
	r.ctl.Subscribe(core.SinkFunc(func(ev core.Event) { kinds = append(kinds, ev.Kind) }),
		core.EventJobAdded|core.EventJobRemoved)
	lead := r.kern.Spawn("lead", quitter)
	crew := r.kern.Spawn("crew", napper)
	team := r.ctl.AddMiscellaneous(lead)
	r.ctl.AddMember(team, crew)
	r.kern.Start() // the machine alone: the plane never starts
	r.run(50 * sim.Millisecond)

	if lead.State() != kernel.StateExited || r.ctl.Steps() != 0 {
		t.Fatalf("setup: lead %v after %d epochs, want exited after none", lead.State(), r.ctl.Steps())
	}
	if team.Thread() != crew || len(team.Members()) != 1 {
		t.Fatalf("after the lead exited: primary %v, %d members; want crew alone", team.Thread(), len(team.Members()))
	}
	if _, ok := r.ctl.JobOf(lead); ok {
		t.Fatal("the exited lead still maps to its job")
	}
	if got := r.ctl.PrimaryChanges(); got != 1 {
		t.Fatalf("primary changes = %d, want 1", got)
	}

	late := r.kern.Spawn("late", quitter)
	r.run(50 * sim.Millisecond)
	if late.State() != kernel.StateExited {
		t.Fatalf("late thread %v, want exited", late.State())
	}
	kinds = kinds[:0]
	r.ctl.AddMiscellaneous(late)
	if _, ok := r.ctl.JobOf(late); ok {
		t.Fatal("a thread that exited before it joined is still controlled after the join")
	}
	if want := []core.EventKind{core.EventJobAdded, core.EventJobRemoved}; !slices.Equal(kinds, want) {
		t.Fatalf("events of the join = %v, want %v", kinds, want)
	}
	if got := len(r.ctl.Jobs()); got != 1 {
		t.Fatalf("%d jobs after the join, want the team alone", got)
	}
	r.ctl.AddMember(team, late)
	if _, ok := r.ctl.JobOf(late); ok || len(team.Members()) != 1 {
		t.Fatalf("an exited member joined: controlled %v, %d members; want crew alone", ok, len(team.Members()))
	}
}

// TestGateCounters pins what moves the controller's gate counters: the
// exit path (ThreadExited, run from the exit hook) counts a primary
// change only when the primary left a surviving job, and admissions and
// Renegotiate count as out-of-pass writes while sampling epochs do not.
func TestGateCounters(t *testing.T) {
	r := newRig(core.Config{})
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
