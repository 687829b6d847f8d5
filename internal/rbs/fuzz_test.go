package rbs_test

import (
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/rbs"
	"repro/internal/sim"
)

// fuzzSimBudget caps the simulated time the advance ops of one
// FuzzBoundaryWheel input may run in total. At a 1 ms tick, two seconds
// wrap L1 and cross an L2 span (256 ms each) seven times, roll
// medium-period boundaries filed in L2, and let a far-period boundary of
// the smallest arguments cascade from the overflow heap into L2 — while
// a 30 s fuzz budget runs about three times as many inputs as it did
// uncapped.
const fuzzSimBudget = 2 * sim.Second

// FuzzBoundaryWheel interprets fuzz bytes as an op script against a
// Verify-mode dispatcher: every Pick replays the legacy linear scan and
// panics on divergence, and asserts that every due period was rolled and
// that every ready entry is its thread's live state at its recorded heap
// slot — so a boundary entry filed in the wrong wheel level, cascaded late
// from L2, lost during a level hop, or a state left linked after its
// thread exited fails the fuzz run. Period bytes are scaled so all three
// levels (L1 buckets, the second 256-slot level, and the overflow heap)
// are hit. The first byte picks the discipline and turns on state and
// thread recycling, so exits pool states that later spawns reissue; the
// second picks 1, 2 or 4 CPUs, so idle CPUs pull work through Steal.
// Advance ops share a simulated-time budget per input (fuzzSimBudget):
// one advance may ask for up to 65 s, and without a cap a script of them
// spends seconds of host time on a single input.
//
//	go test -run '^$' -fuzz=FuzzBoundaryWheel ./internal/rbs
func FuzzBoundaryWheel(f *testing.F) {
	f.Add([]byte{0x01, 0x80, 0x40, 0xFF, 0x03, 0x22})
	f.Add([]byte{0xF0, 0x0F, 0xAA, 0x55, 0x00, 0x99, 0x7F, 0xC3})
	f.Add([]byte{0x03, 0x02, 0x08, 0x10, 0x09, 0x30, 0x00, 0x40, 0x18, 0x20, 0x0A, 0x01, 0x0F, 0x05, 0x08, 0x60, 0x1A, 0x00, 0x08, 0x00, 0x30, 0x50, 0x0E, 0x09})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		eng := sim.NewEngine()
		p := rbs.New()
		if data[0]&1 == 1 {
			p.Discipline = rbs.EDF
		}
		p.Verify = true
		cfg := kernel.DefaultConfig()
		cfg.CPUs = [...]int{1, 2, 4}[int(data[1])%3]
		k := kernel.New(eng, cfg, p)
		if data[0]&2 != 0 {
			p.SetRecycle(true)
			k.SetRecycle(true)
		}

		var threads []*kernel.Thread
		spawned := 0
		budget := fuzzSimBudget
		spawn := func() *kernel.Thread {
			th := k.Spawn(fmt.Sprintf("t%d", spawned), hog(300_000))
			spawned++
			threads = append(threads, th)
			return th
		}
		// A resident unmanaged thread keeps the machine busy so dispatch
		// points (and wheel drains) keep firing; it never exits.
		spawn()
		k.Start()

		// Each op consumes two bytes: an opcode/target byte and an
		// argument byte.
		for i := 2; i+1 < len(data); i += 2 {
			op, arg := data[i], int64(data[i+1])
			ti := int(op>>4) % len(threads)
			th := threads[ti]
			switch op & 15 {
			case 0, 1, 2, 3: // short period: L1
				p.SetReservation(th, rbs.Reservation{
					Proportion: int(arg % 200),
					Period:     sim.Duration(1+arg%250) * sim.Millisecond,
				})
			case 4, 5: // medium period: second wheel level
				p.SetReservation(th, rbs.Reservation{
					Proportion: int(arg % 200),
					Period:     (300 + sim.Duration(arg)*257) * sim.Millisecond,
				})
			case 6: // far period: overflow heap
				p.SetReservation(th, rbs.Reservation{
					Proportion: int(arg % 200),
					Period:     66*sim.Second + sim.Duration(arg)*sim.Second,
				})
			case 7:
				p.Unregister(th)
			case 8, 9:
				if len(threads) < 24 {
					spawn()
				}
			case 10: // exit: the state leaves every shard structure (and is pooled when recycling)
				if ti > 0 {
					k.Retire(th)
					threads = append(threads[:ti], threads[ti+1:]...)
				}
			default: // advance time, crossing L1 wraps and L2 spans
				d := min(sim.Duration(1+arg*arg)*sim.Millisecond, budget)
				eng.RunFor(d)
				budget -= d
			}
		}
		eng.RunFor(500 * sim.Millisecond)
		k.Stop()
	})
}
