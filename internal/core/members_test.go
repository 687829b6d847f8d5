package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/progress"
	"repro/internal/rbs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestMultiThreadRealRateJob: two worker threads cooperate to drain one
// queue as a single job; the controller discovers the job's combined
// allocation and splits it across the members.
func TestMultiThreadRealRateJob(t *testing.T) {
	r := newRig(core.Config{})
	q := r.kern.NewQueue("pipe", 1<<20)
	prod := &workload.Producer{Queue: q, CyclesPerBlock: 400_000, Rate: workload.ConstantRate(50)}
	pt := r.kern.Spawn("producer", prod)
	if _, err := r.ctl.AddRealTime(pt, 100, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	r.reg.RegisterQueue(pt, q, progress.Producer)

	// Two identical workers share the consumption (each needs ~100 ppt of
	// the job's ~200 ppt total).
	w1 := r.kern.Spawn("worker1", &workload.Consumer{Queue: q, BlockBytes: 4096, CyclesPerByte: 40})
	w2 := r.kern.Spawn("worker2", &workload.Consumer{Queue: q, BlockBytes: 4096, CyclesPerByte: 40})
	r.reg.RegisterQueue(w1, q, progress.Consumer)
	j := r.ctl.AddRealRate(w1, 10*sim.Millisecond)
	r.ctl.AddMember(j, w2)

	r.start()
	r.run(10 * sim.Second)
	r.kern.Stop()

	if err := q.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if q.Consumed() < q.Produced()*8/10 {
		t.Fatalf("job lagging: %d of %d", q.Consumed(), q.Produced())
	}
	if fl := q.FillLevel(); fl < 0.3 || fl > 0.7 {
		t.Fatalf("fill = %.3f, want ≈0.5", fl)
	}
	// The job-level allocation covers the combined need.
	if j.Allocated() < 150 || j.Allocated() > 320 {
		t.Fatalf("job allocation = %d ppt, want ≈200", j.Allocated())
	}
	// Both members actually ran, roughly evenly.
	c1, c2 := w1.CPUTime().Seconds(), w2.CPUTime().Seconds()
	if c1 == 0 || c2 == 0 {
		t.Fatalf("a member starved: %v / %v", c1, c2)
	}
	ratio := c1 / c2
	if ratio < 0.6 || ratio > 1.7 {
		t.Fatalf("member split %v/%v, want ≈even", c1, c2)
	}
	// Both members map back to the same job.
	if jb, _ := r.ctl.JobOf(w2); jb != j {
		t.Fatal("JobOf(member) != job")
	}
}

// TestJobLevelFairness: the allocation belongs to the job, so a
// miscellaneous job with three threads gets the same CPU as a job with one
// thread — spawning more threads buys nothing.
func TestJobLevelFairness(t *testing.T) {
	r := newRig(core.Config{})
	big := r.ctl.AddMiscellaneous(r.kern.Spawn("big0", &workload.Hog{Burst: 400_000}))
	r.ctl.AddMember(big, r.kern.Spawn("big1", &workload.Hog{Burst: 400_000}))
	r.ctl.AddMember(big, r.kern.Spawn("big2", &workload.Hog{Burst: 400_000}))
	small := r.ctl.AddMiscellaneous(r.kern.Spawn("small", &workload.Hog{Burst: 400_000}))

	r.start()
	r.run(10 * sim.Second)
	r.kern.Stop()

	var bigCPU, smallCPU float64
	for _, m := range big.Members() {
		bigCPU += m.CPUTime().Seconds()
	}
	for _, m := range small.Members() {
		smallCPU += m.CPUTime().Seconds()
	}
	ratio := bigCPU / smallCPU
	if ratio < 0.75 || ratio > 1.35 {
		t.Fatalf("3-thread job got %.2fs vs 1-thread job %.2fs; allocation must be per job", bigCPU, smallCPU)
	}
}

// TestMemberExitResplitsAllocation: when a member exits, the survivors
// inherit the job's full allocation.
func TestMemberExitResplitsAllocation(t *testing.T) {
	r := newRig(core.Config{})
	n := 0
	mortal := r.kern.Spawn("mortal", kernelProgramCountdown(&n, 200))
	j := r.ctl.AddMiscellaneous(mortal)
	survivor := r.kern.Spawn("survivor", &workload.Hog{Burst: 400_000})
	r.ctl.AddMember(j, survivor)

	r.start()
	r.run(5 * sim.Second)
	r.kern.Stop()

	if len(j.Members()) != 1 {
		t.Fatalf("members = %d after exit, want 1", len(j.Members()))
	}
	if j.Thread() != survivor {
		t.Fatal("primary not re-assigned to the survivor")
	}
	// The survivor ends up with the whole job allocation: with only this
	// job on the machine it should own most of the CPU.
	if survivor.CPUTime().Seconds() < 3 {
		t.Fatalf("survivor got %v, want most of 5s", survivor.CPUTime())
	}
}

// TestDuplicateMemberPanics guards the registration invariant.
func TestDuplicateMemberPanics(t *testing.T) {
	r := newRig(core.Config{})
	th := r.kern.Spawn("x", &workload.Hog{})
	j := r.ctl.AddMiscellaneous(th)
	defer func() {
		if recover() == nil {
			t.Fatal("adding a controlled thread as a member did not panic")
		}
	}()
	r.ctl.AddMember(j, th)
}

// TestActuationReentersThroughMachineRun pins the actuation's member
// snapshot under re-entry. Installing a 12-member job's new reservation
// wakes its napping primary, whose program joins a thread to a 40-member
// job: that job's actuation runs inside the first one's loop, and its
// snapshot is pushed onto the controller's scratch above the first
// one's, growing it. Both jobs must end with every member's share
// installed.
func TestActuationReentersThroughMachineRun(t *testing.T) {
	r := newRig(core.Config{})
	var big *core.Job
	armed, joined := false, false
	lead := r.kern.Spawn("lead", kernel.ProgramFunc(func(*kernel.Thread, sim.Time) kernel.Op {
		if armed && !joined {
			joined = true
			r.ctl.AddMember(big, r.kern.Spawn("late", napper))
		}
		// Exactly one period's budget (10 ppt of 10 ms at 400 MHz), so the
		// lead naps at an op boundary and consults its program on wake.
		return kernel.Compute(40_000)
	}))
	team, err := r.ctl.AddRealTime(lead, 120, 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 11; i++ {
		r.ctl.AddMember(team, r.kern.Spawn("crew", napper))
	}
	if big, err = r.ctl.AddRealTime(r.kern.Spawn("big", napper), 200, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 39; i++ {
		r.ctl.AddMember(big, r.kern.Spawn("member", napper))
	}
	r.kern.Spawn("hog", &workload.Hog{Burst: 400_000}) // keeps the CPU busy
	r.start()
	r.run(5500 * sim.Microsecond)
	if got := lead.State(); got != kernel.StateSleeping {
		t.Fatalf("lead not napping before the actuation: %v", got)
	}
	armed = true
	if err := r.ctl.Renegotiate(team, 360); err != nil {
		t.Fatal(err)
	}
	if !joined {
		t.Fatal("the lead's program did not run inside the actuation (the scenario no longer re-enters)")
	}
	for _, c := range []struct {
		job   *core.Job
		total int
	}{{team, 360}, {big, 200}} {
		members := c.job.Members()
		share := c.total / len(members)
		for i, m := range members {
			want := share
			if i == 0 {
				want += c.total - share*len(members)
			}
			if res, ok := r.policy.ReservationOf(m); !ok || res != (rbs.Reservation{Proportion: want, Period: 10 * sim.Millisecond}) {
				t.Errorf("%s's member %d holds %+v, want %d ppt", c.job.Thread().Name(), i, res, want)
			}
		}
	}
}
