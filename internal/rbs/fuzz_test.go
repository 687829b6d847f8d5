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
// panics on divergence, and asserts that every filed state's due period
// was rolled, that every unfiled reservation keeps the lazy-roll
// invariant, and that every ready entry is its thread's live state at its
// recorded heap slot — so a boundary entry filed in the wrong wheel level,
// cascaded late from L2, lost during a level hop, a lazy state left out of
// its shard's lazyDue, or a state left linked after its thread exited
// fails the fuzz run. Period bytes are scaled so all three levels (L1
// buckets, the second 256-slot level, and the overflow heap) are hit.
// The first byte picks the discipline, turns on state and thread
// recycling, so exits pool states that later spawns reissue, and turns on
// overload mode, which saturates CPU 0 with reserved threads so lazy
// reservations reach SetReservation and Steal with a pending roll
// (TestWheelScriptsReachLazyCatchUps); the second picks 1, 2 or 4 CPUs,
// so idle CPUs pull work through Steal.
// Advance ops share a simulated-time budget per input (fuzzSimBudget):
// one advance may ask for up to 65 s, and without a cap a script of them
// spends seconds of host time on a single input.
//
//	go test -run '^$' -fuzz=FuzzBoundaryWheel ./internal/rbs
func FuzzBoundaryWheel(f *testing.F) {
	for _, data := range wheelSeeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runWheelScript(t, data) })
}

// wheelSeeds is FuzzBoundaryWheel's seed corpus.
var wheelSeeds = [][]byte{
	{0x01, 0x80, 0x40, 0xFF, 0x03, 0x22},
	{0xF0, 0x0F, 0xAA, 0x55, 0x00, 0x99, 0x7F, 0xC3},
	{0x03, 0x02, 0x08, 0x10, 0x09, 0x30, 0x00, 0x40, 0x18, 0x20, 0x0A, 0x01, 0x0F, 0x05, 0x08, 0x60, 0x1A, 0x00, 0x08, 0x00, 0x30, 0x50, 0x0E, 0x09},
	// Seeds that move RMS reservations between lazy rolls and the wheel.
	// An op 0x_0 argument of 199 reserves 199‰ of 200 ms; six of them
	// overload a CPU, so a lower-priority reservation waits through its
	// period end unrolled in the ready heap.
	// Ready → exhausted → refilled: the reserved resident hog naps and
	// wakes period after period, then a proportion raise wakes it early.
	{0x00, 0x00, 0x00, 110, 0x0B, 20, 0x08, 0x00, 0x10, 50, 0x0B, 12, 0x00, 0, 0x0B, 3, 0x00, 150, 0x0B, 9},
	// A zero proportion on a ready thread, with a period change and then
	// on the same period.
	{0x00, 0x00, 0x08, 0x00, 0x10, 199, 0x0B, 3, 0x10, 200, 0x0B, 4, 0x10, 199, 0x0B, 3, 0x10, 250, 0x0B, 2, 0x10, 0, 0x0B, 6},
	// A period change on an unrolled lazy thread: six 199‰-of-200 ms
	// threads overload the CPU, so t7 (1‰ of 557 ms) waits through its
	// period unrolled; it then moves to a 4 ms period and out to the
	// overflow heap.
	{0x00, 0x00, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x10, 199, 0x20, 199, 0x30, 199, 0x40, 199, 0x50, 199, 0x60, 199, 0x74, 1, 0x0B, 25, 0x70, 253, 0x0B, 10, 0x76, 3, 0x0B, 7},
	// A Steal of an unrolled state on 2 CPUs: the even threads overload
	// CPU 0 and starve t0 (1‰ of 557 ms) there, then the odd ones exit
	// and CPU 1 pulls from CPU 0.
	{0x00, 0x01, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x10, 199, 0x20, 199, 0x30, 199, 0x40, 199, 0x50, 199, 0x60, 199, 0x70, 199, 0x80, 199, 0x90, 199, 0xA0, 199, 0xB0, 199, 0xC0, 199, 0xD0, 199, 0x04, 1, 0x0B, 25, 0x1A, 0, 0x2A, 0, 0x3A, 0, 0x4A, 0, 0x5A, 0, 0x6A, 0, 0x7A, 0, 0x0B, 20},
	// The same on 4 CPUs. Round-robin placement puts every fourth spawn on
	// CPU 0, so each round spawns one thread there and three fillers that
	// exit at once; unmanaged hogs keep CPUs 1-3 busy until CPU 1's exits.
	{0x00, 0x02, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x5A, 0, 0x5A, 0, 0x5A, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x6A, 0, 0x6A, 0, 0x6A, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x7A, 0, 0x7A, 0, 0x7A, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x8A, 0, 0x8A, 0, 0x8A, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x9A, 0, 0x9A, 0, 0x9A, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0x08, 0, 0xAA, 0, 0xAA, 0, 0xAA, 0, 0x40, 199, 0x50, 199, 0x60, 199, 0x70, 199, 0x80, 199, 0x90, 199, 0x04, 1, 0x0B, 25, 0x1A, 0, 0x0B, 20},
}

// wheelReach counts how often a script reached a lazy reservation with a
// pending roll at the catch-up points that scan or re-key the ready heap:
// SetReservation, and Steal's hand-over.
type wheelReach struct {
	setReservation, steal int
}

// reachPolicy is the dispatcher under test with its Steal hand-overs
// counted into reach.
type reachPolicy struct {
	*rbs.Policy
	reach *wheelReach
}

func (r reachPolicy) Steal(from int, now sim.Time) *kernel.Thread {
	if th := rbs.Stealable(r.Policy, from); th != nil && rbs.LazyRollPending(r.Policy, th) {
		r.reach.steal++
	}
	return r.Policy.Steal(from, now)
}

// runWheelScript runs one FuzzBoundaryWheel input and reports what it
// reached.
func runWheelScript(t *testing.T, data []byte) wheelReach {
	var reach wheelReach
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
	cfg.Recycle = data[0]&2 != 0
	k := kernel.New(eng, cfg, reachPolicy{p, &reach})
	setReservation := func(th *kernel.Thread, res rbs.Reservation) {
		if rbs.LazyRollPending(p, th) {
			reach.setReservation++
		}
		p.SetReservation(th, res)
	}

	var threads []*kernel.Thread
	spawned := 0
	budget := fuzzSimBudget
	spawn := func(affinity int) *kernel.Thread {
		th := k.SpawnAffinity(fmt.Sprintf("t%d", spawned), hog(300_000), affinity)
		spawned++
		threads = append(threads, th)
		return th
	}
	// A resident unmanaged thread keeps the machine busy so dispatch
	// points (and wheel drains) keep firing; it never exits.
	overload := data[0]&4 != 0
	if !overload {
		spawn(kernel.AffinityAny)
	} else {
		// Overload mode: the resident thread and six reserved hogs asking
		// for 199‰ of 2 ms each are pinned to CPU 0 and saturate it, so a
		// reservation placed there behind them waits through its period
		// end unrolled. Every other CPU holds a pinned hog reserved 800‰
		// of 50 ms, and spawns are reserved, so those CPUs stay busy for
		// stretches and then idle and steal from CPU 0's ready heap. Of
		// the pinned threads, only the resident one is in the script's
		// reach.
		spawn(0)
		for i := 0; i < 6; i++ {
			th := k.SpawnAffinity(fmt.Sprintf("o%d", i), hog(300_000), 0)
			p.SetReservation(th, rbs.Reservation{Proportion: 199, Period: 2 * sim.Millisecond})
		}
		for c := 1; c < cfg.CPUs; c++ {
			th := k.SpawnAffinity(fmt.Sprintf("b%d", c), hog(300_000), c)
			p.SetReservation(th, rbs.Reservation{Proportion: 800, Period: 50 * sim.Millisecond})
		}
	}
	k.Start()

	short := func(arg int64) rbs.Reservation {
		return rbs.Reservation{Proportion: int(arg % 200), Period: sim.Duration(1+arg%250) * sim.Millisecond}
	}
	// Each op consumes two bytes: an opcode/target byte and an
	// argument byte.
	for i := 2; i+1 < len(data); i += 2 {
		op, arg := data[i], int64(data[i+1])
		ti := int(op>>4) % len(threads)
		th := threads[ti]
		switch op & 15 {
		case 0, 1, 2, 3: // short period: L1
			setReservation(th, short(arg))
		case 4, 5: // medium period: second wheel level
			setReservation(th, rbs.Reservation{
				Proportion: int(arg % 200),
				Period:     (300 + sim.Duration(arg)*257) * sim.Millisecond,
			})
		case 6: // far period: overflow heap
			setReservation(th, rbs.Reservation{
				Proportion: int(arg % 200),
				Period:     66*sim.Second + sim.Duration(arg)*sim.Second,
			})
		case 7:
			p.Unregister(th)
		case 8, 9:
			if len(threads) < 24 {
				th := spawn(kernel.AffinityAny)
				if overload {
					setReservation(th, short(arg))
				}
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
	return reach
}

// TestWheelScriptsReachLazyCatchUps counts, over FuzzBoundaryWheel's seed
// corpus and a fixed batch of generated overload-mode scripts, how often a
// script reaches a lazy reservation with a pending roll at SetReservation
// and at Steal. Each must be reached at least once by the generated batch
// alone, so the fuzzer's own inputs reach them, not only hand-built seeds.
func TestWheelScriptsReachLazyCatchUps(t *testing.T) {
	var seeds, gen wheelReach
	for _, data := range wheelSeeds {
		r := runWheelScript(t, data)
		seeds.setReservation += r.setReservation
		seeds.steal += r.steal
	}
	rng := sim.NewRNG(1)
	for i := 0; i < 200; i++ {
		data := make([]byte, 2+2*(8+rng.Intn(40)))
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		data[0] |= 4
		r := runWheelScript(t, data)
		gen.setReservation += r.setReservation
		gen.steal += r.steal
	}
	t.Logf("seed corpus: %+v; generated: %+v", seeds, gen)
	if gen.setReservation == 0 || gen.steal == 0 {
		t.Errorf("generated overload-mode scripts reached a pending lazy roll at SetReservation %d times and at Steal %d times, want both > 0",
			gen.setReservation, gen.steal)
	}
}
