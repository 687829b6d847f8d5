GO ?= go

.PHONY: all build examples vet test race bench benchsmoke benchtest fuzz goldens stress clean

all: build vet test goldens

build:
	$(GO) build ./...

# examples builds the runnable examples explicitly (build already covers
# them via ./..., but CI keeps a dedicated step so a broken example fails
# with a readable name).
examples:
	$(GO) build ./examples/...

# vet also gates formatting: any file gofmt would rewrite fails the step.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that are not gofmt-clean:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs rrbench, the repo's benchmark (bench/, see BENCHMARK.json):
# every workload end to end, each in its own process, with host metrics
# from quiet rounds. To keep a record, run the same command with
# -out <file>; `bash bench/run.sh -compare base.json cand.json` compares
# two. BENCH_results.json is frozen history from before rrbench and is no
# longer appended to.
bench:
	bash bench/run.sh -workload all -trace 0

# benchsmoke runs every Go micro-benchmark once: `go test` only compiles
# benchmarks, so one that panics at run time would otherwise pass.
benchsmoke:
	$(GO) test -count=1 -run '^$$' -bench . -benchtime 1x ./...

# benchtest runs rrbench's own tests (fold, the compare verdicts, a smoke
# run of all four workloads). bench/ is a Go module of its own, so the root
# `go test ./...` does not reach them.
benchtest:
	cd bench && $(GO) test ./...

# fuzz gives each fuzz target a short budget (override with FUZZTIME=…;
# CI uses a tighter budget than the local default). Targets run one per
# invocation — go test refuses multiple -fuzz matches.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz=FuzzWheelDifferential -fuzztime=$(FUZZTIME) ./internal/sim/
	$(GO) test -run '^$$' -fuzz=FuzzBoundaryWheel -fuzztime=$(FUZZTIME) ./internal/rbs/
	$(GO) test -run '^$$' -fuzz=FuzzSpawnOptions -fuzztime=$(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz=FuzzChurnSchedules -fuzztime=$(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz=FuzzFaultSchedule -fuzztime=$(FUZZTIME) ./internal/workload/gen/
	$(GO) test -run '^$$' -fuzz=FuzzOverloadLadder -fuzztime=$(FUZZTIME) ./internal/overload/
	$(GO) test -run '^$$' -fuzz=FuzzEventDrivenThresholds -fuzztime=$(FUZZTIME) ./internal/ctlplane/

# stress runs the generated-workload invariant harness wide open: every
# scenario family × STRESS_SEEDS seeds × all five policies, with failing
# seeds minimized and printed as replayable rrexp command lines — once on
# each family's own machine, then a slice with every family forced onto a
# 4-CPU machine (no-dual-run, per-CPU work conservation, and migration
# bookkeeping under SMP), then a deeper chaos slice of the faults family
# alone (injected signal/timing/actuation faults against the
# graceful-degradation oracles) on 1 and 4 CPUs, then a deeper slice of
# the overload family alone (admission storms against the brownout-ladder
# oracles: typed refusals, importance-ordered sheds, recovery to normal)
# on 1 and 4 CPUs, and finally a slice of the slo live-service family
# alone (open-loop session pipelines against the session-conservation,
# stage-ordering, and SLO-closure oracles) on 1 CPU and on 4 CPUs under
# the sharded event-driven control plane — the scale runs' configuration.
STRESS_SEEDS ?= 25
STRESS_SMP_SEEDS ?= 8
STRESS_FAULT_SEEDS ?= 15
STRESS_OVERLOAD_SEEDS ?= 15
STRESS_SLO_SEEDS ?= 15
stress:
	$(GO) run ./cmd/rrexp -gen -seeds $(STRESS_SEEDS)
	$(GO) run ./cmd/rrexp -gen -cpus 4 -seeds $(STRESS_SMP_SEEDS)
	$(GO) run ./cmd/rrexp -gen -scenario faults -seeds $(STRESS_FAULT_SEEDS)
	$(GO) run ./cmd/rrexp -gen -scenario faults -cpus 4 -seeds $(STRESS_FAULT_SEEDS)
	$(GO) run ./cmd/rrexp -gen -scenario overload -seeds $(STRESS_OVERLOAD_SEEDS)
	$(GO) run ./cmd/rrexp -gen -scenario overload -cpus 4 -seeds $(STRESS_OVERLOAD_SEEDS)
	$(GO) run ./cmd/rrexp -gen -scenario slo -seeds $(STRESS_SLO_SEEDS)
	$(GO) run ./cmd/rrexp -gen -scenario slo -cpus 4 -controller event -shards 2 -seeds $(STRESS_SLO_SEEDS)

# goldens byte-compares the Figure 5-8 outputs, the gen_rbs and gen_shards
# sweeps of generated rbs scenarios, the storm_smp drain and the observer
# event stream against the committed goldens in testdata/goldens/
# (re-bless with scripts/goldens.sh -update).
goldens:
	./scripts/goldens.sh

clean:
	$(GO) clean ./...
