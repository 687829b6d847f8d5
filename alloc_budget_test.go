// Allocation budgets: tier-1 companions to the churn benchmarks. Each
// test runs the same scenario as its benchmark and fails if the heap
// allocation count regresses past a ceiling. The ceilings sit 2x or more
// above the pooled steady state (SLOSessions n=10000 ≈ 8.3k allocs, storm
// n=10000 ≈ 0.7k), far below the pre-pooling counts (≈212k and ≈20.7k),
// so noise never trips them but losing the free lists always does.
package realrate_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload/gen"
)

// measureAllocs returns the heap objects and bytes allocated while fn runs,
// after one warmup run. A single measured run (after one warmup to
// populate lazy globals) is deterministic enough here: the simulator is
// single-goroutine, the object ceilings leave 2x headroom and the byte
// ceilings 5%.
func measureAllocs(t *testing.T, fn func()) (objs, bytes uint64) {
	t.Helper()
	fn() // warmup: interned tables, lazy pools, timer rings
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestAllocBudgetSLOSessions holds the live-service session storm
// (BenchmarkSLOSessions n=10000) to its allocation budget, in objects and
// in bytes. Most of the bytes are per-spawn state that outlives the run's
// pools — the public Thread handles, never pooled by design — plus the
// SLO report, so the byte budget — 5% above the 4,258,100 bytes the run
// allocated once block events stopped building wait-queue labels no
// tracer read (4,365,400 before; 5,826,848 before the 152-byte handles,
// slot tables and one sort per report series) — catches any of them
// growing back.
func TestAllocBudgetSLOSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget run is a full session storm")
	}
	const budget, byteBudget = 30_000, 4_471_000
	got, bytes := measureAllocs(t, func() {
		sp := experiments.SLOSpec(1, 10_000, 1.0, time.Second, 8)
		if _, err := gen.Generate(sp).Run(gen.RunOpts{
			Policy: "rbs", Controller: "event", NoInvariants: true,
		}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("SLOSessions n=10000: %d allocs (budget %d), %d bytes (budget %d)", got, budget, bytes, byteBudget)
	if got > budget {
		t.Fatalf("session storm allocated %d objects, budget is %d: the pooled spawn→exit lifecycle regressed", got, budget)
	}
	if bytes > byteBudget {
		t.Fatalf("session storm allocated %d bytes, budget is %d: the handle, the slot tables or the SLO report grew", bytes, byteBudget)
	}
}

// TestAllocBudgetStormDispatch holds the open-loop dispatch storm
// (BenchmarkStormDispatch n=10000) to its allocation budget, in objects
// and in bytes. Almost all of the bytes are per-thread state (the kernel
// thread, the rbs state slab) and the dispatch arrays, so the byte budget
// — 5% above the 4,244,896 bytes the run allocates with 128-byte rbs
// states linked in place (4,900,272 with 192-byte states and
// pointer-sized heap slots) — catches either growing.
func TestAllocBudgetStormDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget run is a full dispatch storm")
	}
	const budget, byteBudget = 4_000, 4_457_000
	got, bytes := measureAllocs(t, func() {
		experiments.RunContextSwitchStorm(experiments.StormConfig{
			Threads: 10_000, RunFor: sim.Second,
		})
	})
	t.Logf("StormDispatch n=10000: %d allocs (budget %d), %d bytes (budget %d)", got, budget, bytes, byteBudget)
	if got > budget {
		t.Fatalf("dispatch storm allocated %d objects, budget is %d: the pooled spawn→exit lifecycle regressed", got, budget)
	}
	if bytes > byteBudget {
		t.Fatalf("dispatch storm allocated %d bytes, budget is %d: per-thread state or the dispatch arrays grew", bytes, byteBudget)
	}
}
