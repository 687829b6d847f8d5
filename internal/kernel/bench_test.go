package kernel_test

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// BenchmarkSimulatedSecondOneHog measures wall time per simulated second
// of machine time with a single CPU-bound thread — the simulator's
// fundamental speed.
func BenchmarkSimulatedSecondOneHog(b *testing.B) {
	eng, k := newRRMachine(10 * sim.Millisecond)
	k.Spawn("hog", hog(1_000_000))
	k.Start()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(sim.Second)
	}
	b.StopTimer()
	k.Stop()
}

// BenchmarkSimulatedSecondPipeline measures a producer/consumer pair with
// queue blocking — the experiment workloads' hot path.
func BenchmarkSimulatedSecondPipeline(b *testing.B) {
	eng, k := newRRMachine(sim.Millisecond)
	q := k.NewQueue("pipe", 1<<20)
	k.Spawn("prod", &pcProgram{q: q, cycles: 100_000, bytes: 4096, produce: true})
	k.Spawn("cons", &pcProgram{q: q, cycles: 100_000, bytes: 4096})
	k.Start()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(sim.Second)
	}
	b.StopTimer()
	k.Stop()
}

// BenchmarkContextSwitchStorm measures dispatch cost with 20 runnable
// threads and 1 ms quanta.
func BenchmarkContextSwitchStorm(b *testing.B) {
	eng, k := newRRMachine(sim.Millisecond)
	for i := 0; i < 20; i++ {
		k.Spawn("hog", hog(1_000_000))
	}
	k.Start()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(100 * sim.Millisecond)
	}
	b.StopTimer()
	k.Stop()
}

// BenchmarkTimerHeavySleepers measures the do_timers path with n
// periodically sleeping threads: at n=100 a handful wake per tick, and at
// n=100k, the plane workload's population, the sleep heap holds about
// 98k entries. Each thread computes 10k cycles (25 µs) per wake and
// sleeps n × 50 µs, so the machine stays about half busy at either scale;
// first sleeps are staggered so wakes spread evenly over ticks.
func BenchmarkTimerHeavySleepers(b *testing.B) {
	for _, n := range []int{100, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			eng := sim.NewEngine()
			k := kernel.New(eng, kernel.DefaultConfig(), baseline.NewRoundRobin(sim.Millisecond))
			period := sim.Duration(n) * 50 * sim.Microsecond
			for i := 0; i < n; i++ {
				first := sim.Time(period / sim.Duration(n) * sim.Duration(i))
				phase := 0
				k.Spawn("sleeper", kernel.ProgramFunc(func(t *kernel.Thread, now sim.Time) kernel.Op {
					phase++
					switch {
					case phase == 1:
						return kernel.SleepUntil(first)
					case phase%2 == 1:
						return kernel.Sleep(period)
					}
					return kernel.Compute(10_000)
				}))
			}
			k.Start()
			eng.RunFor(period)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.RunFor(100 * sim.Millisecond)
			}
			b.StopTimer()
			k.Stop()
		})
	}
}
