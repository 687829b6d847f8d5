package main

import (
	"fmt"
	"math"
)

// metricDef declares one metric. Sim marks a deterministic simulated
// statistic: at one commit it repeats exactly, so -compare demands
// equality instead of applying a noise bound.
type metricDef struct {
	name, unit, better string
	sim                bool
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; README.md gives each workload's definition.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", false},
	{"sim_s_per_host_s", "sim-s/host-s", "higher", false},
	{"epoch_ms_p50", "ms", "lower", false},
	{"epoch_ms_p95", "ms", "lower", false},
	{"sessions_per_host_s", "1/s", "higher", false},
	{"alloc_mb_per_sim_s", "MB/sim-s", "lower", false},
	{"peak_rss_mb", "MB", "lower", false},
	{"paper_err_pct", "%", "lower", true},
	{"session_goodput", "fraction", "higher", true},
	{"session_p99_sim_ms", "sim-ms", "lower", true},
	{"modeled_overhead_pct", "%", "lower", true},
}

// layers are the attribution buckets of the traced run, named after the
// repository's modules ("realrate" is the root package, "bench" this
// program). Samples with no repository frame land in "runtime".
var layers = []string{
	"sim", "kernel", "rbs", "progress", "core", "pid", "swift", "ctlplane",
	"overload", "metrics", "realrate", "gen", "experiments", "workload",
	"runtime", "bench",
}

// perLayer are the single-layer metrics: the traced run's fold, the ratios
// derived from it, and exact counts read through the public entry points.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs,
			metricDef{l + ".self_ms", "ms", "lower", false},
			metricDef{l + ".self_pct", "%", "lower", false},
			metricDef{l + ".incl_pct", "%", "lower", false})
	}
	return append(defs,
		metricDef{"kernel.ns_per_dispatch", "ns", "lower", false},
		metricDef{"rbs.ns_per_dispatch", "ns", "lower", false},
		metricDef{"ctlplane.ns_per_visit", "ns", "lower", false},
		metricDef{"realrate.spawn_us_p50", "us", "lower", false},
		metricDef{"realrate.spawn_us_p99", "us", "lower", false},
		metricDef{"bench.trace_overhead_pct", "%", "lower", false},
		metricDef{"bench.trace_coverage_pct", "%", "higher", false},
		metricDef{"kernel.dispatches", "count", "lower", true},
		metricDef{"kernel.switches", "count", "lower", true},
		metricDef{"kernel.migrations", "count", "lower", true},
		metricDef{"kernel.idle_pct", "%", "lower", true},
		metricDef{"kernel.sched_overhead_pct", "%", "lower", true},
		metricDef{"rbs.missed_deadlines", "count", "lower", true},
		metricDef{"core.controller_steps", "count", "lower", true},
		metricDef{"core.actuations", "count", "lower", true},
		metricDef{"core.ctl_cpu_pct", "%", "lower", true},
		metricDef{"ctlplane.sampled", "count", "lower", true},
		metricDef{"ctlplane.skipped", "count", "higher", true},
		metricDef{"ctlplane.skip_ratio", "fraction", "higher", true},
		metricDef{"ctlplane.handoffs", "count", "lower", true},
		metricDef{"overload.throttled", "count", "lower", true},
		metricDef{"overload.sheds", "count", "lower", true},
		metricDef{"overload.rung_end", "rung", "lower", true},
		metricDef{"gen.generate_ms", "ms", "lower", false},
		metricDef{"gen.started", "count", "higher", true},
		metricDef{"gen.refused", "count", "lower", true},
		metricDef{"gen.completed", "count", "higher", true},
		metricDef{"gen.dead", "count", "lower", true},
		metricDef{"gen.live_end", "count", "lower", true},
		metricDef{"gen.peak_live", "count", "lower", true},
		metricDef{"runtime.gc_cycles", "count", "lower", false},
		metricDef{"runtime.gc_cpu_pct", "%", "lower", false},
		metricDef{"runtime.allocs_per_sim_s", "obj/sim-s", "lower", false},
		metricDef{"fail_frac", "fraction", "lower", true},
	)
}

var defByName = func() map[string]metricDef {
	m := make(map[string]metricDef)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if _, dup := m[d.name]; dup {
			panic("rrbench: duplicate metric " + d.name)
		}
		m[d.name] = d
	}
	return m
}()

// stat is one metric of one run: the statistic (a median unless the name
// says otherwise), the quartiles and count of the values it summarizes, and
// those values, so anyone can recompute it.
type stat struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Sim    bool      `json:"sim,omitempty"`
	Value  float64   `json:"value"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Raw    []float64 `json:"raw"`
}

// wresult is everything one workload run measured.
type wresult struct {
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Errors    []string         `json:"errors,omitempty"`
	Reps      repCounts        `json:"reps"`
	HostS     repTimes         `json:"host_s"`
	Metrics   map[string]*stat `json:"metrics"`
}

// repTimes is the host seconds of every timed set-up and rep, in the order
// run: what the quiet rounds are chosen from.
type repTimes struct {
	Setup []float64 `json:"setup"`
	Timed []float64 `json:"timed"`
}

// repCounts records how many set-ups and reps of each phase ran.
type repCounts struct {
	Setup  int `json:"setup"`
	Warm   int `json:"warm"`
	Timed  int `json:"timed"`
	Traced int `json:"traced"`
}

func newResult() *wresult {
	return &wresult{Metrics: make(map[string]*stat)}
}

// put records the median of values under name.
func (r *wresult) put(name string, values ...float64) {
	r.putStat(name, median(values), values)
}

// putStat records an explicit statistic of values, such as a percentile,
// under name.
func (r *wresult) putStat(name string, value float64, values []float64) {
	d, ok := defByName[name]
	if !ok {
		panic("rrbench: undeclared metric " + name)
	}
	if len(values) == 0 || math.IsNaN(value) || math.IsInf(value, 0) {
		panic(fmt.Sprintf("rrbench: metric %s has no finite value", name))
	}
	q1, q3 := quartiles(values)
	r.Metrics[name] = &stat{Unit: d.unit, Better: d.better, Sim: d.sim,
		Value: value, Q1: q1, Q3: q3, N: len(values), Raw: values}
}

// fail records a failed correctness check.
func (r *wresult) fail(err error) {
	r.Failed++
	const keep = 10 // enough to diagnose; a systematic failure repeats
	if len(r.Errors) < keep {
		r.Errors = append(r.Errors, err.Error())
	}
}
