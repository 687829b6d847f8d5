// Churn-recycling correctness tests for the pooled spawn→exit life
// cycle: a storm of Spawn/Kill/Renegotiate cycles must behave exactly
// like the non-pooled build (byte-identical dispatch traces), retired
// handles must freeze their final statistics, and use-after-retire must
// fail deterministically — a named panic, not silent corruption of the
// slot's next occupant.
package realrate_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	realrate "repro"
)

// shortProg returns a program that computes for a few steps and exits
// voluntarily.
func shortProg(steps int) realrate.Program {
	n := 0
	return realrate.ProgramFunc(func(th *realrate.Thread, now time.Duration) realrate.Action {
		n++
		if n > steps {
			return realrate.Exit()
		}
		return realrate.Compute(200_000)
	})
}

// runChurnStorm drives a deterministic mixed-class churn scenario on sys:
// a long-lived pipeline plus periodic waves of short-lived reserved,
// miscellaneous, interactive, and unmanaged threads, some killed mid-life
// and some renegotiated. Returns the handles of every churned thread.
func runChurnStorm(tb testing.TB, sys *realrate.System, dur time.Duration) []*realrate.Thread {
	tb.Helper()
	// Long-lived pipeline: a reserved producer and a real-rate consumer
	// that outlive every churn wave, so recycling happens around — and
	// must not perturb — steady controlled threads.
	pipe := sys.NewQueue("pipe", 1<<20)
	pc := true
	producer := realrate.ProgramFunc(func(th *realrate.Thread, now time.Duration) realrate.Action {
		pc = !pc
		if pc {
			return realrate.Compute(400_000)
		}
		return realrate.Produce(pipe, 20_000)
	})
	cc := true
	consumer := realrate.ProgramFunc(func(th *realrate.Thread, now time.Duration) realrate.Action {
		cc = !cc
		if cc {
			return realrate.Consume(pipe, 4096)
		}
		return realrate.Compute(40 * 4096)
	})
	if _, err := sys.Spawn("producer", producer, realrate.Reserve(100, 10*time.Millisecond)); err != nil {
		tb.Fatal(err)
	}
	spawn(tb, sys, "consumer", consumer, realrate.RealRate(0, realrate.ConsumerOf(pipe)))

	var churned []*realrate.Thread
	step := 0
	sys.Every(10*time.Millisecond, func(now time.Duration) {
		step++
		name := fmt.Sprintf("churn%d", step%7) // interned small name set
		var th *realrate.Thread
		var err error
		switch step % 4 {
		case 0:
			th, err = sys.Spawn(name, shortProg(4), realrate.Reserve(20, 10*time.Millisecond))
		case 1:
			th, err = sys.Spawn(name, shortProg(6), realrate.Miscellaneous())
		case 2:
			th, err = sys.Spawn(name, shortProg(3), realrate.Interactive())
		default:
			th, err = sys.Spawn(name, shortProg(5), realrate.Unmanaged())
		}
		if err != nil {
			return // admission veto under load is fine; keep churning
		}
		churned = append(churned, th)
		if step%3 == 0 {
			// Kill an earlier spawn mid-life (no-op if already exited).
			churned[len(churned)/2].Kill()
		}
		if step%4 == 0 && !th.Exited() {
			_ = th.Renegotiate(10) // shrink the fresh reservation
		}
	})
	sys.Run(dur)
	return churned
}

// TestChurnRecyclingStress runs the churn storm with pools on (the
// default) and checks the recycling survives: exited handles freeze
// coherent final statistics, live handles still actuate, and the
// spawn→exit cycle keeps reissuing slots without corrupting classes.
func TestChurnRecyclingStress(t *testing.T) {
	sys := realrate.NewSystem(realrate.Config{})
	churned := runChurnStorm(t, sys, 3*time.Second)

	if len(churned) < 200 {
		t.Fatalf("storm only spawned %d churn threads", len(churned))
	}
	exited := 0
	for _, th := range churned {
		if !th.Exited() {
			continue
		}
		exited++
		// Frozen accessors must stay readable and self-consistent long
		// after the kernel slot was reissued to later spawns.
		if th.State() != "exited" {
			t.Fatalf("exited handle %q reports state %q", th.Name(), th.State())
		}
		if th.CPUTime() < 0 {
			t.Fatalf("exited handle %q reports negative CPU time", th.Name())
		}
		if c := th.Class(); c == "" {
			t.Fatalf("exited handle %q lost its class", th.Name())
		}
		th.Kill() // Kill on an exited handle must stay a no-op
	}
	if exited < len(churned)/2 {
		t.Fatalf("only %d/%d churn threads exited", exited, len(churned))
	}
}

// TestUseAfterRetirePanics pins the deterministic failure mode: mutating
// a retired thread panics with a message naming the retired generation,
// instead of silently reaching into a recycled slot.
func TestUseAfterRetirePanics(t *testing.T) {
	mustPanic := func(t *testing.T, want string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("no panic; want one mentioning %q", want)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not mention %q", msg, want)
			}
		}()
		fn()
	}

	t.Run("renegotiate", func(t *testing.T) {
		sys := realrate.NewSystem(realrate.Config{})
		th, err := sys.Spawn("victim", shortProg(2), realrate.Reserve(100, 10*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(time.Second) // let it exit; churn more spawns through the slot
		for i := 0; i < 5; i++ {
			if _, err := sys.Spawn("squatter", shortProg(2), realrate.Reserve(50, 10*time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			sys.Run(time.Second)
		}
		if !th.Exited() {
			t.Fatal("victim never exited")
		}
		mustPanic(t, "retired", func() { _ = th.Renegotiate(50) })
	})

	t.Run("set-importance", func(t *testing.T) {
		sys := realrate.NewSystem(realrate.Config{})
		th, err := sys.Spawn("victim", shortProg(2), realrate.Miscellaneous())
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(time.Second)
		if !th.Exited() {
			t.Fatal("victim never exited")
		}
		mustPanic(t, "retired", func() { th.SetImportance(3) })
	})

	t.Run("kill-is-noop", func(t *testing.T) {
		sys := realrate.NewSystem(realrate.Config{})
		th, err := sys.Spawn("victim", shortProg(2), realrate.Miscellaneous())
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(time.Second)
		th.Kill() // must not panic: killing an exited thread is declared a no-op
	})

	t.Run("spawn-into-exited-job", func(t *testing.T) {
		sys := realrate.NewSystem(realrate.Config{})
		th, err := sys.Spawn("primary", shortProg(2), realrate.Reserve(100, 10*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(time.Second)
		if _, err := sys.Spawn("late-member", shortProg(2), realrate.InJob(th)); err == nil {
			t.Fatal("spawning into an exited thread's job succeeded")
		}
	})
}

// churnTraceCSV runs the deterministic churn storm with tracing enabled
// and returns the raw dispatch-trace CSV.
func churnTraceCSV(tb testing.TB, disablePools bool) []byte {
	tb.Helper()
	var cfg realrate.Config
	realrate.SetDisablePools(&cfg, disablePools)
	sys := realrate.NewSystem(cfg)
	tr := sys.EnableTracing()
	runChurnStorm(tb, sys, 2*time.Second)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestChurnTraceIdenticalPoolsOnOff is the pooling ground truth: free-list
// recycling of kernel threads, scheduler state, and controller jobs must
// not move a single dispatch edge. The same churn storm runs with pools
// on and off — toggling only the config's pool switch — and the raw scheduler
// traces must match byte for byte.
func TestChurnTraceIdenticalPoolsOnOff(t *testing.T) {
	pooled := churnTraceCSV(t, false)
	unpooled := churnTraceCSV(t, true)
	if !bytes.Equal(pooled, unpooled) {
		i := 0
		for i < len(pooled) && i < len(unpooled) && pooled[i] == unpooled[i] {
			i++
		}
		lo := i - 100
		if lo < 0 {
			lo = 0
		}
		hp, hu := i+100, i+100
		if hp > len(pooled) {
			hp = len(pooled)
		}
		if hu > len(unpooled) {
			hu = len(unpooled)
		}
		t.Fatalf("dispatch traces diverge at byte %d:\npooled:   …%s…\nunpooled: …%s…",
			i, pooled[lo:hp], unpooled[lo:hu])
	}
	if len(pooled) == 0 {
		t.Fatal("empty trace: the storm never dispatched")
	}
}
