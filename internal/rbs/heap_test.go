package rbs_test

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/rbs"
	"repro/internal/sim"
)

// The dispatcher's indexed-heap core must reproduce the legacy linear
// scan's decisions bit-for-bit. Policy.Verify makes every Pick replay the
// scan — runnable threads in enqueue order, first-best wins — and panic on
// any divergence, so driving a randomized workload with Verify on is a
// differential heap-vs-scan property test over the full policy surface:
// enqueue, dequeue, rotation, budget exhaustion, period rolls,
// re-reservation, unregistration, and both disciplines.

// chaosProgram mixes compute bursts, sleeps, yields, and queue blocking so
// threads move through every scheduling state.
func chaosProgram(rng *sim.RNG, q *kernel.Queue) kernel.Program {
	phase := 0
	return kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
		phase++
		switch rng.Intn(6) {
		case 0:
			return kernel.Sleep(sim.Duration(1+rng.Intn(20)) * sim.Millisecond)
		case 1:
			return kernel.Yield()
		case 2:
			if phase%2 == 0 {
				return kernel.Produce(q, int64(64+rng.Intn(512)))
			}
			return kernel.Compute(sim.Cycles(10_000 + rng.Intn(500_000)))
		case 3:
			if phase%2 == 0 {
				return kernel.Consume(q, int64(64+rng.Intn(512)))
			}
			return kernel.Compute(sim.Cycles(10_000 + rng.Intn(500_000)))
		default:
			return kernel.Compute(sim.Cycles(10_000 + rng.Intn(1_000_000)))
		}
	})
}

// chaosMachine is the randomized machine runDifferential drives: 4–15
// chaos threads on the given CPUs, about two thirds of them reserved, with
// every Pick cross-checked against the legacy scan. Reserved CPU hogs, when
// asked for, join the chaos threads and overload the machine, so ready
// reservations miss deadlines all the time.
type chaosMachine struct {
	rng     *sim.RNG
	eng     *sim.Engine
	p       *rbs.Policy
	k       *kernel.Kernel
	threads []*kernel.Thread
}

func newChaosMachine(t *testing.T, seed uint64, disc rbs.Discipline, cpus, hogs int) *chaosMachine {
	t.Helper()
	m := &chaosMachine{rng: sim.NewRNG(seed), eng: sim.NewEngine(), p: rbs.New()}
	m.p.Discipline = disc
	m.p.Verify = true // every Pick cross-checks heap vs linear scan
	cfg := kernel.DefaultConfig()
	cfg.CPUs = cpus
	m.k = kernel.New(m.eng, cfg, m.p)
	q := m.k.NewQueue("chaos", 2048)

	n := 4 + m.rng.Intn(12)
	m.threads = make([]*kernel.Thread, n)
	for i := range m.threads {
		m.threads[i] = m.k.Spawn(fmt.Sprintf("t%d", i), chaosProgram(m.rng, q))
		if m.rng.Intn(3) > 0 {
			res := rbs.Reservation{
				Proportion: 10 + m.rng.Intn(150),
				Period:     sim.Duration(2+m.rng.Intn(60)) * sim.Millisecond,
			}
			if err := m.p.SetReservation(m.threads[i], res); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < hogs; i++ {
		th := m.k.Spawn(fmt.Sprintf("hog%d", i), hog(1_000_000))
		res := rbs.Reservation{
			Proportion: 400 + m.rng.Intn(400),
			Period:     sim.Duration(2+m.rng.Intn(60)) * sim.Millisecond,
		}
		if err := m.p.SetReservation(th, res); err != nil {
			t.Fatal(err)
		}
		m.threads = append(m.threads, th)
	}
	return m
}

// churn starts the machine and mutates reservations mid-run so period
// phases, budgets, and classes churn while it runs. Each mutation lands at
// a random instant inside its run window, between dispatches, as a
// controller's does. observe, when not nil, is called after every run
// window and after every mutation.
func (m *chaosMachine) churn(t *testing.T, observe func()) {
	t.Helper()
	if observe == nil {
		observe = func() {}
	}
	rng, p := m.rng, m.p
	mutate := func(sim.Time) {
		th := m.threads[rng.Intn(len(m.threads))]
		switch rng.Intn(4) {
		case 0:
			p.Unregister(th)
		default:
			res := rbs.Reservation{
				Proportion: rng.Intn(200), // zero-proportion edge included
				Period:     sim.Duration(1+rng.Intn(80)) * sim.Millisecond,
			}
			if err := p.SetReservation(th, res); err != nil {
				t.Fatal(err)
			}
		}
		observe()
	}
	m.k.Start()
	for step := 0; step < 30; step++ {
		d := sim.Duration(1+rng.Intn(40)) * sim.Millisecond
		m.eng.After(rng.Duration(d), mutate)
		m.eng.RunFor(d)
		observe()
	}
	m.eng.RunFor(200 * sim.Millisecond)
	observe()
	m.k.Stop()
}

// runDifferential drives one seed's chaos machine on 1, 2 and 4 CPUs. On
// more than one CPU, Verify cross-checks each shard's heap while idle CPUs
// pull work through Steal, which scans the heap array in index order.
func runDifferential(t *testing.T, seed uint64, disc rbs.Discipline) {
	t.Helper()
	for _, cpus := range []int{1, 2, 4} {
		newChaosMachine(t, seed, disc, cpus, 0).churn(t, nil)
	}
}

func TestDifferentialHeapVsScanRMS(t *testing.T) {
	f := func(seed uint64) bool {
		runDifferential(t, seed, rbs.RMS)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDifferentialHeapVsScanEDF(t *testing.T) {
	f := func(seed uint64) bool {
		runDifferential(t, seed, rbs.EDF)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestStealSkipsThreadBeingDispatched replays the chaos machine whose
// SMP differential run found a double run: on 4 CPUs, a dispatch driving
// t9's program woke a thread whose preemption dispatched another CPU,
// which pulled t9 off the CPU still dispatching it and started it there
// too, so the kernel's next Pick returned a thread already running.
func TestStealSkipsThreadBeingDispatched(t *testing.T) {
	newChaosMachine(t, 0xf15444c1ed2bf15f, rbs.RMS, 4, 0).churn(t, nil)
}

// TestDequeueUnqueuedIsNoOp is the regression test for Dequeue called on a
// thread that is not in the runnable set (sleeping, blocked, or already
// dequeued): it must be a no-op and must not corrupt the structures.
func TestDequeueUnqueuedIsNoOp(t *testing.T) {
	eng := sim.NewEngine()
	p := rbs.New()
	p.Verify = true
	k := kernel.New(eng, kernel.DefaultConfig(), p)
	a := k.Spawn("a", hog(1_000_000))
	b := k.Spawn("b", hog(1_000_000))
	if err := p.SetReservation(a, rbs.Reservation{Proportion: 100, Period: 10 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	now := k.Now()
	// Double-dequeue both threads; the second call must be a no-op.
	p.Dequeue(a, now)
	p.Dequeue(a, now)
	p.Dequeue(b, now)
	p.Dequeue(b, now)
	if got := p.Pick(0, now); got != nil {
		t.Fatalf("Pick after dequeueing everything = %v, want nil", got)
	}
	// Re-enqueue and make sure the machine still schedules both.
	p.Enqueue(a, now)
	p.Enqueue(b, now)
	k.Start()
	eng.RunFor(100 * sim.Millisecond)
	k.Stop()
	if a.CPUTime() == 0 || b.CPUTime() == 0 {
		t.Fatalf("threads starved after double dequeue: a=%v b=%v", a.CPUTime(), b.CPUTime())
	}
}

// TestTotalProportionDropsOnExit pins the incremental proportion total to
// the legacy scan semantics: exited threads leave the sum immediately.
func TestTotalProportionDropsOnExit(t *testing.T) {
	eng := sim.NewEngine()
	p := rbs.New()
	k := kernel.New(eng, kernel.DefaultConfig(), p)
	done := 0
	exiting := k.Spawn("exiting", kernel.ProgramFunc(func(th *kernel.Thread, now sim.Time) kernel.Op {
		done++
		if done > 1 {
			return kernel.Exit()
		}
		return kernel.Compute(1000)
	}))
	stayer := k.Spawn("stayer", hog(1_000_000))
	p.SetReservation(exiting, rbs.Reservation{Proportion: 300, Period: 10 * sim.Millisecond})
	p.SetReservation(stayer, rbs.Reservation{Proportion: 200, Period: 10 * sim.Millisecond})
	if got := p.TotalProportion(); got != 500 {
		t.Fatalf("TotalProportion = %d, want 500", got)
	}
	k.Start()
	eng.RunFor(50 * sim.Millisecond)
	k.Stop()
	if exiting.State() != kernel.StateExited {
		t.Fatalf("exiting thread still %v", exiting.State())
	}
	if got := p.TotalProportion(); got != 200 {
		t.Fatalf("TotalProportion after exit = %d, want 200", got)
	}
	// Unregistering the exited thread must not double-subtract.
	p.Unregister(exiting)
	if got := p.TotalProportion(); got != 200 {
		t.Fatalf("TotalProportion after unregistering exited = %d, want 200", got)
	}
}

// TestZeroProportionReservationParks covers the Budget()==0 edge: the
// thread stays registered but can never hold budget, so the dispatcher
// naps it period after period without ever selecting it.
func TestZeroProportionReservationParks(t *testing.T) {
	eng := sim.NewEngine()
	p := rbs.New()
	p.Verify = true
	k := kernel.New(eng, kernel.DefaultConfig(), p)
	parked := k.Spawn("parked", hog(1_000_000))
	running := k.Spawn("running", hog(1_000_000))
	p.SetReservation(parked, rbs.Reservation{Proportion: 0, Period: 10 * sim.Millisecond})
	k.Start()
	eng.RunFor(100 * sim.Millisecond)
	k.Stop()
	if parked.CPUTime() != 0 {
		t.Fatalf("zero-proportion thread ran %v", parked.CPUTime())
	}
	if running.CPUTime() == 0 {
		t.Fatal("unmanaged thread starved by a zero-proportion reservation")
	}
}

// runDifferentialLongPeriods is runDifferential with periods drawn across
// all three boundary-wheel levels: L1 (< 256 ticks), L2 (256..65536
// ticks), and the overflow heap (beyond 65536 ticks = 65.5 s at the 1 ms
// tick). Verify replays the legacy scan on every Pick, so any mis-filed or
// late-cascaded boundary entry panics as a heap/scan divergence or an
// unrolled-period assertion.
func runDifferentialLongPeriods(t *testing.T, seed uint64, disc rbs.Discipline) {
	t.Helper()
	rng := sim.NewRNG(seed)
	eng := sim.NewEngine()
	p := rbs.New()
	p.Discipline = disc
	p.Verify = true
	k := kernel.New(eng, kernel.DefaultConfig(), p)
	q := k.NewQueue("chaos", 2048)

	// Period menu spanning every wheel level; weights favor L2, the new
	// second level.
	period := func() sim.Duration {
		switch rng.Intn(6) {
		case 0:
			return sim.Duration(2+rng.Intn(200)) * sim.Millisecond // L1
		case 5:
			return sim.Duration(66+rng.Intn(30)) * sim.Second // overflow heap
		default:
			return sim.Duration(300+rng.Intn(60_000)) * sim.Millisecond // L2
		}
	}
	n := 4 + rng.Intn(10)
	threads := make([]*kernel.Thread, n)
	for i := range threads {
		threads[i] = k.Spawn(fmt.Sprintf("t%d", i), chaosProgram(rng, q))
		if rng.Intn(4) > 0 {
			res := rbs.Reservation{Proportion: 5 + rng.Intn(150), Period: period()}
			if err := p.SetReservation(threads[i], res); err != nil {
				t.Fatal(err)
			}
		}
	}
	k.Start()
	// Long windows so L1 wraps many times and the cursor crosses several
	// L2 spans; mutate reservations so entries hop between levels.
	for step := 0; step < 12; step++ {
		eng.RunFor(sim.Duration(50+rng.Intn(900)) * sim.Millisecond)
		th := threads[rng.Intn(n)]
		switch rng.Intn(4) {
		case 0:
			p.Unregister(th)
		default:
			res := rbs.Reservation{Proportion: rng.Intn(200), Period: period()}
			if err := p.SetReservation(th, res); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.RunFor(2 * sim.Second)
	k.Stop()
}

func TestDifferentialTwoLevelWheelRMS(t *testing.T) {
	f := func(seed uint64) bool {
		runDifferentialLongPeriods(t, seed, rbs.RMS)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestDifferentialTwoLevelWheelEDF(t *testing.T) {
	f := func(seed uint64) bool {
		runDifferentialLongPeriods(t, seed, rbs.EDF)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestOverflowHeapBeyondL2 pins the far edge: a period beyond the L2
// horizon files in the overflow heap, still refreshes exactly at its
// boundary, and a renegotiation back to a short period pulls it into L1.
func TestOverflowHeapBeyondL2(t *testing.T) {
	eng := sim.NewEngine()
	p := rbs.New()
	p.Verify = true
	k := kernel.New(eng, kernel.DefaultConfig(), p)
	far := k.Spawn("far", hog(200_000))
	near := k.Spawn("near", hog(200_000))
	if err := p.SetReservation(far, rbs.Reservation{Proportion: 100, Period: 70 * sim.Second}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetReservation(near, rbs.Reservation{Proportion: 100, Period: 10 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	k.Start()
	eng.RunFor(2 * sim.Second)
	if far.CPUTime() == 0 {
		t.Fatal("overflow-heap thread never ran")
	}
	// Renegotiate down into L1 mid-run; Verify keeps checking every Pick.
	if err := p.SetReservation(far, rbs.Reservation{Proportion: 50, Period: 20 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(2 * sim.Second)
	k.Stop()
	if got := p.TotalProportion(); got != 150 {
		t.Fatalf("TotalProportion = %d, want 150", got)
	}
}

// missedReadSeeds is how many fixed seeds TestMissedDeadlinesAtEveryRead
// runs per CPU count.
const missedReadSeeds = 16

// TestMissedDeadlinesAtEveryRead pins the missed-deadline counter as an
// observer sees it: the chaos machines run under RMS on 1, 2 and 4 CPUs,
// overloaded by two reserved hogs per CPU (alone they miss deadlines so
// rarely that a mutation seldom lands on a thread with a pending roll),
// and MissedDeadlines is read after every run window and after every
// SetReservation/Unregister. The whole read sequence must match the one in
// testdata/missed_at_every_read.txt, recorded from the dispatcher that
// rolled every queued reservation through the boundary wheel, so a lazy
// roll that is caught up late, caught up to the wrong instant or skipped
// shows up as a drifted read. Each line run-length encodes one sequence:
// "v*n" is n reads of v in a row.
func TestMissedDeadlinesAtEveryRead(t *testing.T) {
	want, err := os.ReadFile("testdata/missed_at_every_read.txt")
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	var got []string
	for _, cpus := range []int{1, 2, 4} {
		for seed := uint64(1); seed <= missedReadSeeds; seed++ {
			m := newChaosMachine(t, seed, rbs.RMS, cpus, 2*cpus)
			var reads []uint64
			m.churn(t, func() { reads = append(reads, m.p.MissedDeadlines()) })
			got = append(got, fmt.Sprintf("cpus=%d seed=%d:%s", cpus, seed, runLength(reads)))
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("%d read sequences, want %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("read sequence drifted:\n got %s\nwant %s", got[i], wantLines[i])
		}
	}
}

// runLength encodes reads as " v*n" runs.
func runLength(reads []uint64) string {
	var b strings.Builder
	for i := 0; i < len(reads); {
		j := i
		for j < len(reads) && reads[j] == reads[i] {
			j++
		}
		fmt.Fprintf(&b, " %d*%d", reads[i], j-i)
		i = j
	}
	return b.String()
}
