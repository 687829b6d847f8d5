// Internal churn-recycling tests: the free lists must be bounded by the
// peak live population (recycling, not leaking), and arbitrary fuzzed
// churn schedules must behave identically with pools on and off.
package realrate

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/kernel"
)

// churnProg returns a program that computes for a few steps and exits.
func churnProg(steps int) Program {
	n := 0
	return ProgramFunc(func(th *Thread, now time.Duration) Action {
		n++
		if n > steps {
			return Exit()
		}
		return Compute(150_000)
	})
}

// TestChurnPoolNonLeak drives hundreds of short-lived spawns through the
// pooled lifecycle and checks nothing accumulates with the total spawn
// count: the kernel free list and the handle index are both bounded by the
// peak number of simultaneously live threads, not by how many threads ever
// existed.
func TestChurnPoolNonLeak(t *testing.T) {
	sys := NewSystem(Config{})
	peak, spawned := 0, 0
	sample := func() {
		if n := len(sys.kern.Threads()); n > peak {
			peak = n
		}
	}
	step := 0
	sys.Every(10*time.Millisecond, func(now time.Duration) {
		step++
		sample()
		name := fmt.Sprintf("churn%d", step%5)
		var err error
		switch step % 3 {
		case 0:
			_, err = sys.Spawn(name, churnProg(3), Reserve(20, 10*time.Millisecond))
		case 1:
			_, err = sys.Spawn(name, churnProg(4), Miscellaneous())
		default:
			_, err = sys.Spawn(name, churnProg(2), Interactive())
		}
		if err == nil {
			spawned++
		}
	})
	sys.Run(5 * time.Second)
	sample()

	if spawned < 300 {
		t.Fatalf("storm only spawned %d threads", spawned)
	}
	if peak >= spawned/4 {
		t.Fatalf("peak live %d too close to total spawned %d for the bound to mean anything", peak, spawned)
	}
	if free := sys.kern.FreeThreads(); free > peak {
		t.Errorf("kernel free list holds %d threads, exceeds peak live %d: exits are leaking objects", free, peak)
	}
	n, err := linkedHandles(sys)
	if err != nil {
		t.Error(err)
	}
	if n > peak {
		t.Errorf("%d kernel threads still link a public handle, exceeds peak live %d: retired handles are leaking", n, peak)
	}
}

// linkedHandles counts the kernel threads that link a public handle and
// checks each link: only a live thread may link one, and the handle must
// name that thread back. An exited thread still linking its handle would
// pin the handle and hand its events to whichever thread reuses the slot.
func linkedHandles(sys *System) (int, error) {
	n := 0
	for _, kt := range sys.kern.Threads() {
		th := handleOf(kt)
		if th == nil {
			continue
		}
		n++
		if kt.State() == kernel.StateExited || th.exited {
			return n, fmt.Errorf("exited thread %s still links its public handle", th.Name())
		}
		if th.t != kt {
			return n, fmt.Errorf("kernel thread %v links the handle of %v", kt, th.t)
		}
	}
	return n, nil
}

// checkSlotTables runs the slot-table checks of every layer that indexes
// by kernel-thread or job slot, plus the ground truth the progress table
// cannot know on its own: a live handle has metrics registered exactly
// when it was spawned with progress sources (realRate), and nothing else
// holds a registration.
func checkSlotTables(sys *System, realRate map[*Thread]bool) error {
	if err := sys.ctl.CheckSlots(); err != nil {
		return err
	}
	if err := sys.plane.CheckSlots(); err != nil {
		return err
	}
	if err := sys.reg.CheckSlots(); err != nil {
		return err
	}
	for _, j := range sys.ctl.Jobs() {
		for _, m := range j.Members() {
			if m.State() == kernel.StateExited {
				return fmt.Errorf("controlled job still lists exited member %v", m)
			}
		}
	}
	want := 0
	for _, kt := range sys.kern.Threads() {
		th := handleOf(kt)
		if th == nil {
			continue
		}
		if realRate[th] {
			want++
		}
		if sys.reg.HasMetrics(kt) != realRate[th] {
			return fmt.Errorf("thread %s: registry says metrics %v, spawned real-rate %v", th.Name(), sys.reg.HasMetrics(kt), realRate[th])
		}
	}
	if got := sys.reg.Registered(); got != want {
		return fmt.Errorf("registry holds %d registrations, %d live real-rate threads", got, want)
	}
	return nil
}

// TestChurnSlotTablesClean storms the pooled spawn→exit lifecycle —
// every managed class, job members, kills, and real-rate threads with
// progress sources — under a sharded event-driven plane on two CPUs,
// and checks every 10 ms and at the end that no slot of the controller's
// job table, the progress registry or the control plane's entry table
// names an exited thread or a retired job. Kernel threads and jobs are
// reissued many times over, so a slot left behind by one life would be
// read by the next.
func TestChurnSlotTablesClean(t *testing.T) {
	sys := NewSystem(Config{CPUs: 2, CtlPlane: CtlPlaneConfig{Mode: ControllerEventDriven, Shards: 2}})
	realRate := make(map[*Thread]bool)
	var live []*Thread
	spawned, step := 0, 0
	var failed error
	sys.Every(10*time.Millisecond, func(now time.Duration) {
		if failed != nil {
			return
		}
		if failed = checkSlotTables(sys, realRate); failed != nil {
			return
		}
		step++
		name := fmt.Sprintf("s%d", step%7)
		var th *Thread
		var err error
		switch step % 5 {
		case 0:
			th, err = sys.Spawn(name, churnProg(4), Reserve(20, 10*time.Millisecond))
		case 1:
			th, err = sys.Spawn(name, churnProg(3), Miscellaneous())
		case 2:
			if th, err = sys.Spawn(name, churnProg(5), RealRate(0, NewPace(name, 100, 20))); err == nil {
				realRate[th] = true
			}
		case 3:
			th, err = sys.Spawn(name, churnProg(2), Interactive())
		default:
			// A member joins the newest live thread's job, when it has one.
			for i := len(live) - 1; i >= 0; i-- {
				if lead := live[i]; !lead.Exited() && lead.Class() != "unmanaged" {
					th, err = sys.Spawn(name, churnProg(3), InJob(lead))
					break
				}
			}
		}
		if th == nil || err != nil {
			return
		}
		spawned++
		live = append(live, th)
		if step%11 == 0 {
			live[step%len(live)].Kill()
		}
		kept := live[:0]
		for _, h := range live {
			if !h.Exited() {
				kept = append(kept, h)
			} else {
				delete(realRate, h)
			}
		}
		live = kept
	})
	sys.Run(5 * time.Second)
	if failed != nil {
		t.Fatal(failed)
	}
	if err := checkSlotTables(sys, realRate); err != nil {
		t.Fatal(err)
	}
	if spawned < 300 {
		t.Fatalf("storm only spawned %d threads", spawned)
	}
	if n := sys.kern.FreeThreads(); n == 0 {
		t.Fatal("no kernel thread was recycled: the storm never reissued a slot")
	}
	t.Logf("spawned %d, free %d, live %d", spawned, sys.kern.FreeThreads(), len(sys.kern.Threads()))
}

// runChurnSchedule executes one fuzz-decoded churn schedule and returns
// the raw dispatch trace. Each byte drives one wave: thread class, name,
// lifetime, plus optional kill and renegotiate actions.
func runChurnSchedule(t *testing.T, data []byte, disablePools bool) []byte {
	t.Helper()
	sys := NewSystem(Config{disablePools: disablePools})
	tr := sys.EnableTracing()
	var spawned []*Thread
	i := 0
	sys.Every(5*time.Millisecond, func(now time.Duration) {
		if i >= len(data) {
			return
		}
		b := data[i]
		i++
		name := fmt.Sprintf("c%d", b%5)
		steps := int(b%7) + 1
		var th *Thread
		var err error
		switch b % 4 {
		case 0:
			th, err = sys.Spawn(name, churnProg(steps), Reserve(int(b%30)+1, 10*time.Millisecond))
		case 1:
			th, err = sys.Spawn(name, churnProg(steps), Miscellaneous())
		case 2:
			th, err = sys.Spawn(name, churnProg(steps), Interactive())
		default:
			th, err = sys.Spawn(name, churnProg(steps), Unmanaged())
		}
		if err != nil {
			return // admission veto is part of the schedule, not a failure
		}
		spawned = append(spawned, th)
		if b&0x10 != 0 && len(spawned) > 1 {
			spawned[int(b)%len(spawned)].Kill()
		}
		if b&0x20 != 0 && b%4 == 0 && !th.Exited() {
			_ = th.Renegotiate(int(b%25) + 1)
		}
	})
	sys.Run(time.Duration(len(data)+8) * 5 * time.Millisecond)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzChurnSchedules is the pooling differential fuzzer: any churn
// schedule — spawns across all classes, mid-life kills, renegotiations —
// must produce byte-identical dispatch traces with pools on and off, and
// must never panic in either mode.
func FuzzChurnSchedules(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x01, 0x12, 0x23, 0x34})
	f.Add([]byte{0xff, 0x80, 0x40, 0x20, 0x10, 0x08})
	f.Add(bytes.Repeat([]byte{0x33, 0x9c}, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 48 {
			data = data[:48]
		}
		pooled := runChurnSchedule(t, data, false)
		unpooled := runChurnSchedule(t, data, true)
		if !bytes.Equal(pooled, unpooled) {
			t.Fatalf("pools-on/pools-off traces diverge for schedule %x", data)
		}
	})
}
