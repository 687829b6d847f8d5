// Internal churn-recycling tests: the free lists must be bounded by the
// peak live population (recycling, not leaking), and arbitrary fuzzed
// churn schedules must behave identically with pools on and off.
package realrate

import (
	"bytes"
	"fmt"
	"testing"
	"time"
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
	if n := len(sys.byKern); n > peak {
		t.Errorf("byKern still indexes %d threads, exceeds peak live %d: retired handles are leaking", n, peak)
	}
}

// runChurnSchedule executes one fuzz-decoded churn schedule and returns
// the raw dispatch trace. Each byte drives one wave: thread class, name,
// lifetime, plus optional kill and renegotiate actions.
func runChurnSchedule(t *testing.T, data []byte, disablePools bool) []byte {
	t.Helper()
	sys := NewSystem(Config{disablePools: disablePools})
	tr := sys.EnableTracing(0)
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
