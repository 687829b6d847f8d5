package realrate

import (
	"testing"
	"time"

	"repro/internal/kernel"
)

// decodeSpawnOptions turns fuzz bytes into one Spawn's option list. Every
// option constructor is reachable, with both valid and invalid arguments,
// so the fuzzer explores the full combinator lattice (conflicting classes,
// option-after-class errors, policy-specific options on the wrong policy).
func decodeSpawnOptions(data []byte, sys *System, q *Queue, lead *Thread) ([]SpawnOption, []byte) {
	var opts []SpawnOption
	n := 1 + int(data[0]%4) // 1..4 options per spawn
	data = data[1:]
	for i := 0; i < n && len(data) >= 2; i++ {
		arg := int(data[1])
		switch data[0] % 10 {
		case 0:
			opts = append(opts, Reserve(arg*8, time.Duration(1+arg%50)*time.Millisecond))
		case 1:
			opts = append(opts, Aperiodic(arg*8))
		case 2:
			opts = append(opts, RealRate(time.Duration(arg%40)*time.Millisecond, ConsumerOf(q)))
		case 3:
			opts = append(opts, RealRate(0)) // always an error: no sources
		case 4:
			opts = append(opts, Interactive())
		case 5:
			opts = append(opts, Miscellaneous())
		case 6:
			opts = append(opts, Unmanaged())
		case 7:
			opts = append(opts, InJob(lead))
		case 8:
			opts = append(opts, Importance(float64(arg)-8)) // negative and zero reachable
		case 9:
			if arg%2 == 0 {
				opts = append(opts, Tickets(int64(arg)-16))
			} else {
				opts = append(opts, Nice(arg%40-20))
			}
		}
		data = data[2:]
	}
	return opts, data
}

// TestExitUnregistersProgressUnderBaseline guards the baseline half of the
// exit path: with no controller running, the kernel exit hook alone must
// unlink a dead thread's progress registration — otherwise open-loop
// paced/real-rate arrivals under a baseline policy grow the registry
// without bound. It runs with pools off too: there the exited kernel
// thread is never scrubbed, so only the exit hook can clear its link to
// the public handle.
func TestExitUnregistersProgressUnderBaseline(t *testing.T) {
	for _, pooled := range []bool{true, false} {
		sys := NewSystem(Config{Policy: Stride(10 * time.Millisecond), disablePools: !pooled})
		pace := NewPace("w", 100, 50)
		th, err := sys.Spawn("w", ProgramFunc(func(th *Thread, now time.Duration) Action {
			return Exit()
		}), RealRate(30*time.Millisecond, pace))
		if err != nil {
			t.Fatal(err)
		}
		if !sys.reg.HasMetrics(th.t) {
			t.Fatal("progress source not registered at spawn")
		}
		sys.Run(100 * time.Millisecond)
		if th.State() != "exited" {
			t.Fatalf("pooled=%v: thread did not exit: %v", pooled, th.State())
		}
		if sys.reg.HasMetrics(th.t) || sys.reg.Registered() != 0 {
			t.Fatalf("pooled=%v: exited thread leaked its progress registration (no controller to tear it down)", pooled)
		}
		if handleOf(th.t) != nil {
			t.Fatalf("pooled=%v: exited thread's kernel slot still links its public handle", pooled)
		}
	}
}

// FuzzSpawnOptions drives random option sets through System.Spawn on every
// policy and asserts the error-vs-retire consistency contract: a Spawn
// that returns an error must leave no trace — the kernel thread it may
// have created is fully retired (Kernel.Retire), never runs, keeps no
// progress registration, and is absent from the public index — while a
// successful Spawn yields a live, indexed, schedulable thread.
func FuzzSpawnOptions(f *testing.F) {
	f.Add([]byte{2, 0, 50, 1, 10})             // reserve + aperiodic conflict
	f.Add([]byte{1, 2, 0, 3, 0, 7, 0})         // real-rate; no-source; injob
	f.Add([]byte{3, 8, 0, 9, 2, 9, 3})         // invalid importance + tickets + nice
	f.Add([]byte{1, 0, 120, 1, 0, 120, 0, 50}) // oversubscription
	f.Add([]byte{4, 6, 0, 8, 12, 5, 0, 2, 9})

	policies := []func() Policy{
		func() Policy { return nil },
		func() Policy { return Stride(10 * time.Millisecond) },
		func() Policy { return Lottery(10*time.Millisecond, 99) },
		func() Policy { return Linux() },
		func() Policy { return RoundRobin(10 * time.Millisecond) },
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		sys := NewSystem(Config{Policy: policies[int(data[0])%len(policies)]()})
		data = data[1:]
		q := sys.NewQueue("q", 1<<16)
		lead, err := sys.Spawn("lead", HogProgram(100_000))
		if err != nil {
			t.Fatalf("lead spawn: %v", err)
		}

		type rejected struct{ th *kernel.Thread }
		var rejects []rejected
		for len(data) >= 3 {
			var opts []SpawnOption
			opts, data = decodeSpawnOptions(data, sys, q, lead)
			before := len(sys.kern.Threads())
			th, err := sys.Spawn("fuzzed", HogProgram(200_000), opts...)
			created := sys.kern.Threads()[before:]
			if err != nil {
				if th != nil {
					t.Fatalf("Spawn returned both a handle and an error: %v", err)
				}
				// Error-vs-retire consistency: anything created on the way
				// to the error is exited, unindexed, and unregistered.
				for _, kt := range created {
					if kt.State() != kernel.StateExited {
						t.Fatalf("rejected spawn left thread in state %v (opts error: %v)", kt.State(), err)
					}
					if handleOf(kt) != nil {
						t.Fatalf("rejected spawn left its kernel slot linked to a handle (opts error: %v)", err)
					}
					if sys.reg.HasMetrics(kt) {
						t.Fatalf("rejected spawn left progress metrics registered (opts error: %v)", err)
					}
					rejects = append(rejects, rejected{kt})
				}
				continue
			}
			if th.State() == "exited" {
				t.Fatal("successful spawn returned an exited thread")
			}
			if handleOf(th.t) != th {
				t.Fatal("successful spawn not linked from its kernel thread")
			}
		}

		// The machine must run with whatever mix was admitted, and the
		// rejected threads must never consume CPU.
		sys.Run(30 * time.Millisecond)
		for _, r := range rejects {
			if r.th.CPUTime() != 0 {
				t.Fatalf("rejected thread ran for %v", time.Duration(r.th.CPUTime()))
			}
			if r.th.State() != kernel.StateExited {
				t.Fatalf("rejected thread resurrected: %v", r.th.State())
			}
		}
		// Exit bookkeeping stays closed: live public handles only.
		if _, err := linkedHandles(sys); err != nil {
			t.Fatal(err)
		}
	})
}
