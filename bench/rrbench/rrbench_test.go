package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload/gen"
)

// tinySize runs every workload through the benchmark's own code in a
// fraction of a second: same machines and rates, far less of them.
var tinySize = sizes{
	stormThreads: 100,
	planeJobs:    1000,
	planeSetups:  2,
	planeWarm:    100 * time.Millisecond,
	countEpochs:  5,
	scenarios:    3,
	sessionsPer:  1000,
	sessionDur:   100 * time.Millisecond,
}

func tinyConfig(t *testing.T, trace bool) config {
	return config{trace: trace, size: tinySize,
		goldens: filepath.Join("..", "..", "testdata", "goldens"), scratch: t.TempDir()}
}

// TestSmoke runs all four workloads at tiny scale, the storm traced, so a
// broken benchmark fails here rather than in a benchmark run.
func TestSmoke(t *testing.T) {
	experiments.SetParallel(false)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(t, name == "storm")
			if cfg.trace {
				cfg.budget = 400 * time.Millisecond // long enough for profile samples
			}
			r, err := measure(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", r.Attempted, r.Failed, r.Errors)
			}
			for _, d := range endToEnd {
				s := r.Metrics[d.name]
				if s == nil || !(s.Value > 0) {
					t.Errorf("end-to-end metric %s = %+v, want a positive value", d.name, s)
				}
			}
			if name == "storm" {
				for _, d := range perLayer {
					if r.Metrics[d.name] == nil {
						t.Errorf("traced run lacks per-layer metric %s", d.name)
					}
				}
				if cov := r.Metrics["bench.trace_coverage_pct"].Value; cov < 90 {
					t.Errorf("named layers cover %.1f%% of samples, want >= 90%%", cov)
				}
			}
		})
	}
}

const canned = `File: rrbench
Type: cpu
Duration: 1s, Total samples = 100ms (10.00%)
-----------+-------------------------------------------------------
      40ms   repro/internal/rbs.(*Policy).boundDrain
             repro/internal/rbs.(*Policy).Pick
             repro/internal/kernel.(*Kernel).dispatch
             repro/internal/sim.(*Engine).RunFor (inline)
             repro/internal/experiments.RunContextSwitchStorm
             main.(*stormBench).rep
             runtime.main
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc
             runtime.newobject
             repro.(*System).Spawn
             main.(*planeBench).setup
             runtime.main
-----------+-------------------------------------------------------
      20ms   runtime.gcBgMarkWorker
             runtime.goexit
-----------+-------------------------------------------------------
      10ms   repro/internal/workload/gen.(*sessionRun).OnExit
             repro/internal/kernel.(*Kernel).exit
             repro/internal/workload/gen.(*Scenario).Run
             main.(*sessionsBench).rep
-----------+-------------------------------------------------------
`

func TestParseTracesFold(t *testing.T) {
	f, err := parseTraces(strings.NewReader(canned))
	if err != nil {
		t.Fatal(err)
	}
	if f.total != 100*time.Millisecond {
		t.Errorf("total = %v, want 100ms", f.total)
	}
	wantSelf := map[string]time.Duration{"rbs": 40, "realrate": 30, "runtime": 20, "gen": 10}
	wantIncl := map[string]time.Duration{
		"rbs": 40, "kernel": 50, "sim": 40, "experiments": 40, "bench": 80,
		"realrate": 30, "runtime": 50, "gen": 10,
	}
	for _, c := range []struct {
		name      string
		got, want map[string]time.Duration
	}{{"self", f.self, wantSelf}, {"incl", f.incl, wantIncl}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s has layers %v, want %v", c.name, c.got, c.want)
		}
		for l, ms := range c.want {
			if got := c.got[l]; got != ms*time.Millisecond {
				t.Errorf("%s[%s] = %v, want %v", c.name, l, got, ms*time.Millisecond)
			}
		}
	}
}

func TestParseTracesRejectsMalformed(t *testing.T) {
	bad := "-----------+---\n  tenms   runtime.main\n"
	if _, err := parseTraces(strings.NewReader(bad)); err == nil {
		t.Error("a block with an unparsable weight folded without error")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/rbs.(*heap[go.shape.*uint8]).push": "rbs",
		"repro.(*System).Spawn":                            "realrate",
		"repro/internal/workload/gen.(*Scenario).Run":      "gen",
		"repro/internal/workload.(*Producer).Next":         "workload",
		"repro/internal/experiments.RunFig5.func1":         "experiments",
		"main.measure":                          "bench",
		"repro/bench/rrbench.(*stormBench).rep": "bench",
		"runtime.mallocgc":                      "",
		"reprox.Foo":                            "",
		"github.com/x/repro/y.F":                "",
	} {
		got, ok := layerOf(fn)
		if got != want || ok != (want != "") {
			t.Errorf("layerOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}

// The checks that feed fail_frac, each shown to fire on a planted bad
// result and to stay quiet on a good one.

func TestCheckPaperFiresOnDivergedFigure(t *testing.T) {
	var goldens [4][]byte
	for i := range goldens {
		g, err := os.ReadFile(filepath.Join("..", "..", "testdata", "goldens", fmt.Sprintf("fig%d.golden", 5+i)))
		if err != nil {
			t.Fatal(err)
		}
		goldens[i] = g
	}
	if err := checkPaper(goldens, goldens); err != nil {
		t.Fatalf("identical figures rejected: %v", err)
	}
	planted := goldens
	planted[1] = append([]byte(nil), goldens[1]...)
	planted[1][len(planted[1])-2] ^= 1
	err := checkPaper(planted, goldens)
	if err == nil || !strings.Contains(err.Error(), "figure 6") {
		t.Errorf("diverged Figure 6 gave %v", err)
	}
}

func TestCheckStormFiresOnUndrainedBacklog(t *testing.T) {
	if err := checkStorm(experiments.StormResult{Completed: 100}, 100); err != nil {
		t.Errorf("drained storm rejected: %v", err)
	}
	if err := checkStorm(experiments.StormResult{Completed: 99}, 100); err == nil {
		t.Error("storm with an undrained thread accepted")
	}
}

func TestCheckPlaneEpochFiresOnMissedOrDoubleVisit(t *testing.T) {
	prev := planeSnap{sampled: 10, skipped: 90}
	good := planeSnap{sampled: 20, skipped: 180}
	if err := checkPlaneEpoch(prev, good, 100); err != nil {
		t.Errorf("exactly-once epoch rejected: %v", err)
	}
	for _, bad := range []planeSnap{{sampled: 20, skipped: 179}, {sampled: 21, skipped: 180}} {
		if err := checkPlaneEpoch(prev, bad, 100); err == nil {
			t.Errorf("epoch visiting %d jobs accepted", bad.sampled+bad.skipped-100)
		}
	}
}

func TestCheckSessionsFiresOnLeakOrNoCompletion(t *testing.T) {
	good := gen.SessionReport{Started: 10, Refused: 2, Completed: 5, Dead: 1, Live: 2}
	if err := checkSessions(good); err != nil {
		t.Errorf("conserved sessions rejected: %v", err)
	}
	leaked := good
	leaked.Live = 1
	if err := checkSessions(leaked); err == nil {
		t.Error("a session in no bucket accepted")
	}
	idle := gen.SessionReport{Started: 3, Refused: 3}
	if err := checkSessions(idle); err == nil {
		t.Error("a run that completed no session accepted")
	}
}

func TestSameAsFirstFiresOnNondeterminism(t *testing.T) {
	var ref experiments.StormResult
	first := experiments.StormResult{Threads: 4, Dispatches: 7}
	if err := sameAsFirst(&ref, first); err != nil || ref != first {
		t.Fatalf("first rep not stored: %v", err)
	}
	if err := sameAsFirst(&ref, first); err != nil {
		t.Errorf("identical rep rejected: %v", err)
	}
	drift := first
	drift.Dispatches++
	if err := sameAsFirst(&ref, drift); err == nil {
		t.Error("rep with different simulated statistics accepted")
	}
}

// fakeWorkload fails its check on chosen reps and can panic.
type fakeWorkload struct {
	failOn, panicOn int
	tally
}

func (f *fakeWorkload) setup() error { return nil }
func (f *fakeWorkload) start() error { return nil }
func (f *fakeWorkload) rep(i int) time.Duration {
	if i == f.panicOn {
		panic("planted")
	}
	return epoch
}
func (f *fakeWorkload) check(i int) error {
	if i == f.failOn {
		return errors.New("planted bad result")
	}
	return nil
}
func (f *fakeWorkload) finish(*wresult, measured) {}

func TestRunRepsCountsFailuresAndStopsOnPanic(t *testing.T) {
	r := newResult()
	reps, ok := runReps(&fakeWorkload{failOn: 1, panicOn: -1}, plan{}, r, 4, 4, 0)
	if !ok || len(reps) != 4 || r.Attempted != 4 || r.Failed != 1 {
		t.Errorf("failing check: ok %v, %d reps, attempted %d, failed %d", ok, len(reps), r.Attempted, r.Failed)
	}
	r = newResult()
	reps, ok = runReps(&fakeWorkload{failOn: -1, panicOn: 2}, plan{}, r, 4, 4, 0)
	if ok || len(reps) != 2 || r.Attempted != 3 || r.Failed != 1 {
		t.Errorf("panicking rep: ok %v, %d reps, attempted %d, failed %d", ok, len(reps), r.Attempted, r.Failed)
	}
}

// TestQuietRounds rebuilds rounds from each unit's fastest reps. Unit 0's
// reps in order of host time are 1, 2, 5, ... and unit 1's 3, 4, 6, ...,
// so the quiet round of up to ten rounds takes 1 and 3, and the second
// quiet round of eleven takes 2 and 4.
func TestQuietRounds(t *testing.T) {
	rep := func(host, sim time.Duration) sample { return sample{host: host, sim: sim} }
	rounds := [][]sample{
		{rep(5, 10), rep(4, 20)},
		{rep(1, 10), rep(8, 20)},
		{rep(9, 10), rep(3, 20)},
		{rep(2, 10), rep(6, 20)},
	}
	q := quietRounds(rounds)
	if len(q) != 1 || q[0][0] != rep(1, 10) || q[0][1] != rep(3, 20) {
		t.Errorf("quiet rounds of four = %v, want [[{1 10} {3 20}]]", q)
	}
	for len(rounds) < 11 {
		rounds = append(rounds, []sample{rep(20, 10), rep(20, 20)})
	}
	q = quietRounds(rounds)
	if len(q) != 2 || q[1][0] != rep(2, 10) || q[1][1] != rep(4, 20) {
		t.Errorf("quiet rounds of eleven = %v, want a second round [{2 10} {4 20}]", q)
	}
}

// TestQuartilesMatchPython pins the quartiles to statistics.quantiles(xs,
// n=4), which the spread of a run is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q3, md float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{5, 1, 3}, 1, 5, 3},
		{[]float64{4, 2}, 1.5, 4.5, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 || median(c.xs) != c.md {
			t.Errorf("%v: q1 %v q3 %v median %v, want %v %v %v", c.xs, q1, q3, median(c.xs), c.q1, c.q3, c.md)
		}
	}
	if p := percentile([]float64{1, 2, 3, 4, 5}, 95); math.Abs(p-4.8) > 1e-12 {
		t.Errorf("p95 = %v, want 4.8", p)
	}
}

func TestJudge(t *testing.T) {
	host := func(better string, v, q1, q3 float64, raw ...float64) *stat {
		return &stat{Better: better, Value: v, Q1: q1, Q3: q3, Raw: raw}
	}
	for _, c := range []struct {
		name  string
		a, b  *stat
		bound float64
		gated bool
		want  string
	}{
		{"sim equal", &stat{Sim: true, Value: 3}, &stat{Sim: true, Value: 3}, 0.1, true, verdictEqual},
		{"sim differs", &stat{Sim: true, Value: 3}, &stat{Sim: true, Value: 3.0001}, 0.1, true, verdictDiffers},
		{"within", host("lower", 10, 9.9, 10.1), host("lower", 10.5, 10.4, 10.6), 0.1, true, verdictWithin},
		{"worse", host("lower", 10, 9.9, 10.1), host("lower", 12, 11.9, 12.1), 0.1, true, verdictWorse},
		{"better (higher)", host("higher", 10, 9.9, 10.1), host("higher", 12, 11.9, 12.1), 0.1, true, verdictBetter},
		{"unresolved", host("lower", 10, 8, 12, 8, 10, 12), host("lower", 11, 9, 13, 9, 11, 13), 0.1, true, verdictUnresolved},
		{"wide but disjoint", host("lower", 10, 8, 12, 8, 10, 12), host("lower", 20, 18, 22, 18, 20, 22), 0.1, true, verdictWorse},
		{"ungated", host("lower", 10, 9.9, 10.1), host("lower", 20, 19.9, 20.1), 0, false, verdictInfo},
	} {
		if got, _ := judge(c.a, c.b, c.bound, c.gated); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and rrbench's
// metric and workload tables from drifting apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, rrbench runs %v", names, workloadNames)
	}
	for _, c := range []struct {
		json   []metric
		tables []metricDef
		bound  bool
	}{{spec.EndToEnd, endToEnd, true}, {spec.PerLayer, perLayer, false}} {
		if len(c.json) != len(c.tables) {
			t.Errorf("BENCHMARK.json lists %d metrics, rrbench %d", len(c.json), len(c.tables))
			continue
		}
		for i, m := range c.json {
			d := c.tables[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || (m.Bound != nil) != c.bound {
				t.Errorf("metric %d: BENCHMARK.json %+v, rrbench %+v", i, m, d)
			}
		}
	}
}
