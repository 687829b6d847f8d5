package kernel_test

import (
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// randomProgram emits a pseudo-random but deterministic op stream drawn
// from the full op vocabulary, exercising arbitrary interleavings of
// compute, queue ops, sleeps, locks, yields, and exits.
type randomProgram struct {
	rng    *sim.RNG
	queues []*kernel.Queue
	mus    []*kernel.Mutex
	held   *kernel.Mutex
	steps  int
	limit  int
}

func (p *randomProgram) Next(t *kernel.Thread, now sim.Time) kernel.Op {
	p.steps++
	if p.steps > p.limit {
		if p.held != nil {
			m := p.held
			p.held = nil
			return kernel.Unlock(m)
		}
		return kernel.Exit()
	}
	// While holding a mutex, only compute or release: keeps lock usage
	// well-formed so the test exercises scheduling, not API misuse.
	if p.held != nil {
		if p.rng.Intn(2) == 0 {
			return kernel.Compute(sim.Cycles(1 + p.rng.Intn(500_000)))
		}
		m := p.held
		p.held = nil
		return kernel.Unlock(m)
	}
	switch p.rng.Intn(8) {
	case 0, 1:
		return kernel.Compute(sim.Cycles(1 + p.rng.Intn(2_000_000)))
	case 2:
		q := p.queues[p.rng.Intn(len(p.queues))]
		return kernel.Produce(q, int64(1+p.rng.Intn(2000)))
	case 3:
		q := p.queues[p.rng.Intn(len(p.queues))]
		return kernel.Consume(q, int64(1+p.rng.Intn(2000)))
	case 4:
		return kernel.Sleep(sim.Duration(p.rng.Intn(20)) * sim.Millisecond)
	case 5:
		m := p.mus[p.rng.Intn(len(p.mus))]
		p.held = m
		return kernel.Lock(m)
	case 6:
		return kernel.Yield()
	default:
		return kernel.Compute(sim.Cycles(1 + p.rng.Intn(100_000)))
	}
}

// TestPropertyRandomWorkloadInvariants runs swarms of random programs under
// both baseline policies and checks the machine-level invariants: queue
// conservation, time conservation, and clean termination.
func TestPropertyRandomWorkloadInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		for _, mkPolicy := range []func() kernel.Policy{
			func() kernel.Policy { return baseline.NewRoundRobin(2 * sim.Millisecond) },
			func() kernel.Policy { return baseline.NewLinux() },
		} {
			eng := sim.NewEngine()
			k := kernel.New(eng, kernel.DefaultConfig(), mkPolicy())
			rng := sim.NewRNG(seed)
			queues := []*kernel.Queue{
				k.NewQueue("q0", 64*1024),
				k.NewQueue("q1", 8*1024),
			}
			mus := []*kernel.Mutex{kernel.NewMutex("m0"), kernel.NewMutex("m1")}
			n := 2 + rng.Intn(6)
			for i := 0; i < n; i++ {
				k.Spawn("rand", &randomProgram{
					rng:    sim.NewRNG(rng.Uint64()),
					queues: queues,
					mus:    mus,
					limit:  50 + rng.Intn(200),
				})
			}
			k.Start()
			eng.RunFor(3 * sim.Second)
			k.Stop()

			for _, q := range queues {
				if err := q.CheckConservation(); err != nil {
					t.Log(err)
					return false
				}
			}
			st := k.Stats()
			var threadTime sim.Duration
			for _, th := range k.Threads() {
				threadTime += th.CPUTime()
			}
			total := threadTime + st.Idle + st.Overhead
			diff := total - st.Elapsed
			if diff < 0 {
				diff = -diff
			}
			if diff > 5*sim.Millisecond {
				t.Logf("conservation drift %v (threads %v idle %v overhead %v elapsed %v)",
					diff, threadTime, st.Idle, st.Overhead, st.Elapsed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRandomWorkloadUnderRBSControl runs the same fuzz through the
// full real-rate stack (dispatcher + controller) via a helper in the rbs
// tests' style: every thread becomes a miscellaneous job.
func TestRandomWorkloadNeverDeadlocksMachine(t *testing.T) {
	// Blocked-forever threads are legal (a consumer on an empty queue),
	// but the machine itself must keep ticking and accounting.
	eng := sim.NewEngine()
	k := kernel.New(eng, kernel.DefaultConfig(), baseline.NewRoundRobin(sim.Millisecond))
	q := k.NewQueue("q", 1024)
	k.Spawn("starved-consumer", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		return kernel.Consume(q, 512)
	}))
	k.Start()
	eng.RunFor(2 * sim.Second)
	k.Stop()
	st := k.Stats()
	if st.Ticks < 1990 {
		t.Fatalf("machine stopped ticking: %d ticks", st.Ticks)
	}
	if st.Idle < 1900*sim.Millisecond {
		t.Fatalf("idle accounting wrong with one blocked thread: %v", st.Idle)
	}
}
