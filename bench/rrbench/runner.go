package main

import (
	"cmp"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	budget  time.Duration // how long the timed phase runs
	trace   bool
	size    sizes
	goldens string // directory of the Figure 5-8 goldens
	scratch string // directory for the traced run's profile
}

// dropper is a workload whose inputs are large enough to matter to the
// collector: it releases the previous copy before each set-up, so every
// set-up starts from the same heap.
type dropper interface {
	drop()
}

// sample is what the runner measures around one set-up or rep.
type sample struct {
	host  time.Duration
	sim   time.Duration
	bytes uint64 // heap bytes allocated
	objs  uint64 // heap objects allocated
}

// measured is what the runner hands a workload's finish.
type measured struct {
	setups [][]sample // the quiet rounds of the set-ups
	reps   []sample   // every timed rep, in the order run
	quiet  [][]sample // the quiet rounds of the timed phase
}

// measure runs one workload through its phases — set-ups, start, warm-up,
// the timed phase and, with cfg.trace, a profiled phase — and returns
// every metric. A failed check is counted and the run goes on; a panic
// ends the run, since the machine it left behind cannot be trusted.
func measure(name string, cfg config) (*wresult, error) {
	w, p, err := newWorkload(name, cfg)
	if err != nil {
		return nil, err
	}
	r := newResult()
	if name != "paper" {
		// The fidelity anchor is reported on every workload, so a change
		// that moves the paper's numbers shows in every row.
		r.put("paper_err_pct", runPaper(false).errPct())
	}

	setup := func() (sample, error) {
		if d, ok := w.(dropper); ok {
			d.drop()
		}
		runtime.GC()
		r.Attempted++
		s, err := timed(func() (time.Duration, error) { return 0, w.setup() })
		if err != nil {
			r.fail(fmt.Errorf("set-up: %w", err))
		}
		return s, err
	}
	for i := 0; i < p.warmSetups; i++ {
		if _, err := setup(); err != nil {
			return r, nil
		}
	}
	var setups []sample
	for start := time.Now(); !enough(len(setups), p.setupRound, p.setups, start, p.setupTime); {
		s, err := setup()
		if err != nil {
			return r, nil
		}
		setups = append(setups, s)
	}
	r.Reps.Setup = len(setups)
	r.HostS.Setup = hostSeconds(setups)
	r.Attempted++
	if err := w.start(); err != nil {
		r.fail(fmt.Errorf("start: %w", err))
		return r, nil
	}

	warm, ok := runReps(w, p, r, 1, p.warm, 0)
	r.Reps.Warm = len(warm)
	if !ok {
		return r, nil
	}
	// The collections around the timed phase flush the runtime's CPU
	// accounting, which it updates as cycles end.
	runtime.GC()
	gc0 := readRuntime()
	reps, ok := runReps(w, p, r, p.round, p.minReps, cfg.budget)
	runtime.GC()
	gc1 := readRuntime()
	r.Reps.Timed = len(reps)
	r.HostS.Timed = hostSeconds(reps)
	if !ok {
		return r, nil
	}
	r.put("peak_rss_mb", peakRSS())
	m := measured{setups: quietRounds(inRounds(setups, p.setupRound)), reps: reps,
		quiet: quietRounds(inRounds(reps, p.round))}
	putRepMetrics(r, m, inRounds(reps, p.round))
	n := float64(len(reps))
	r.put("runtime.gc_cycles", (gc1.autoGC-gc0.autoGC)/n)
	r.put("runtime.gc_cpu_pct", 100*share(gc1.gcCPU-gc0.gcCPU, gc1.totalCPU-gc0.totalCPU))
	w.finish(r, m)

	if cfg.trace {
		*w.work() = tally{}
		var traced []sample
		f, err := profile(cfg.scratch, name, func() {
			traced, ok = runReps(w, p, r, p.round, p.round, cfg.budget/4)
		})
		r.Reps.Traced = len(traced)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		if !ok {
			return r, nil
		}
		putTraceMetrics(r, f, *w.work(), m.quiet, quietRounds(inRounds(traced, p.round)), len(traced))
		for _, d := range perLayer {
			if _, ok := r.Metrics[d.name]; !ok {
				r.put(d.name, 0) // the layer does no such work on this workload
			}
		}
	}
	r.put("fail_frac", float64(r.Failed)/float64(r.Attempted))
	return r, nil
}

// enough reports whether a phase that began at start has run n units of
// work: whole rounds of round, at least min, for at least budget.
func enough(n, round, min int, start time.Time, budget time.Duration) bool {
	return n >= min && n%round == 0 && time.Since(start) >= budget
}

// runReps runs reps in rounds of round until at least min have run and
// budget has elapsed. Whole rounds keep every unit of a workload's work
// (a sessions scenario, a plane epoch's place in the staleness cycle)
// equally represented. It reports false when a rep panicked.
func runReps(w workload, p plan, r *wresult, round, min int, budget time.Duration) ([]sample, bool) {
	var out []sample
	if !p.gcEach {
		runtime.GC()
	}
	start := time.Now()
	for i := 0; !enough(i, round, min, start, budget); i++ {
		if p.gcEach {
			runtime.GC()
		}
		s, err := timed(func() (sim time.Duration, err error) {
			defer func() {
				if v := recover(); v != nil {
					err = fmt.Errorf("panic: %v", v)
				}
			}()
			return w.rep(i), nil
		})
		r.Attempted++
		if err != nil {
			r.fail(fmt.Errorf("rep %d: %w", i, err))
			return out, false
		}
		if err := w.check(i); err != nil {
			r.fail(fmt.Errorf("rep %d: %w", i, err))
		}
		out = append(out, s)
	}
	return out, true
}

// timed runs f and measures its host time and heap allocation.
func timed(f func() (time.Duration, error)) (sample, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	sim, err := f()
	host := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return sample{host: host, sim: sim, bytes: m1.TotalAlloc - m0.TotalAlloc, objs: m1.Mallocs - m0.Mallocs}, err
}

// allocated returns the heap bytes f allocates.
func allocated(f func()) uint64 {
	s, _ := timed(func() (time.Duration, error) { f(); return 0, nil })
	return s.bytes
}

func hostSeconds(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.host.Seconds()
	}
	return out
}

// putRepMetrics records the metrics every workload derives the same way
// from its set-ups and timed rounds. Host cost is taken over the quiet
// rounds and normalized to one 10 ms epoch of simulated time, so
// workloads of different lengths read alike; allocation is a count and
// is taken over every round.
func putRepMetrics(r *wresult, m measured, rounds [][]sample) {
	r.put("setup_s", perRound(m.setups, func(_ int, s sample) float64 { return s.host.Seconds() })...)
	r.put("sim_s_per_host_s", perRound(m.quiet, func(_ int, s sample) float64 { return s.sim.Seconds() / s.host.Seconds() })...)
	var p50, p95 []float64
	for _, round := range m.quiet {
		v := make([]float64, len(round))
		for i, s := range round {
			v[i] = epochMS(s)
		}
		p50 = append(p50, median(v))
		p95 = append(p95, percentile(v, 95))
	}
	r.put("epoch_ms_p50", p50...)
	r.put("epoch_ms_p95", p95...)
	r.put("alloc_mb_per_sim_s", perRound(rounds, func(_ int, s sample) float64 { return float64(s.bytes) / mb / s.sim.Seconds() })...)
	r.put("runtime.allocs_per_sim_s", perRound(rounds, func(_ int, s sample) float64 { return float64(s.objs) / s.sim.Seconds() })...)
}

// epochMS is a rep's host milliseconds per 10 ms of simulated time.
func epochMS(s sample) float64 {
	return ms(s.host) * float64(epoch) / float64(s.sim)
}

// inRounds splits reps into rounds of n: one pass over a workload's units
// of work. A metric is taken per round (a host-time metric per quiet
// round) and reported as the median over rounds, so its quartiles measure
// how the statistic varies, not how a workload's different units differ.
func inRounds(reps []sample, n int) [][]sample {
	var rounds [][]sample
	for len(reps) >= n {
		rounds = append(rounds, reps[:n])
		reps = reps[n:]
	}
	return rounds
}

// quietRounds returns the rounds as the host would have run them in its
// quiet phases. On a shared host another tenant can slow the same code by
// up to 2x for a second or more at a time, and such a phase can cover
// much of a run, so a median over every round measures the neighbours
// (README.md, Bounds and steadiness). Each unit of work (a place in the
// round) has its reps sorted by host time; the j-th rebuilt round takes
// every unit's j-th fastest rep, and the fastest tenth of the rebuilt
// rounds (at least one) are returned.
func quietRounds(rounds [][]sample) [][]sample {
	if len(rounds) == 0 {
		return nil
	}
	quiet := make([][]sample, (len(rounds)+9)/10)
	for j := range quiet {
		quiet[j] = make([]sample, len(rounds[0]))
	}
	unit := make([]sample, len(rounds))
	for k := range rounds[0] {
		for i, round := range rounds {
			unit[i] = round[k]
		}
		slices.SortStableFunc(unit, func(a, b sample) int { return cmp.Compare(a.host, b.host) })
		for j := range quiet {
			quiet[j][k] = unit[j]
		}
	}
	return quiet
}

// perRound returns the median of f over each round; f gets each rep's
// position in its round.
func perRound(rounds [][]sample, f func(k int, s sample) float64) []float64 {
	out := make([]float64, len(rounds))
	for j, round := range rounds {
		v := make([]float64, len(round))
		for k, s := range round {
			v[k] = f(k, s)
		}
		out[j] = median(v)
	}
	return out
}

// putTraceMetrics records the fold of the profiled phase and the ratios
// derived from it.
func putTraceMetrics(r *wresult, f *fold, work tally, untraced, traced [][]sample, reps int) {
	n := float64(reps)
	pct := func(d time.Duration) float64 {
		if f.total == 0 {
			return 0
		}
		return 100 * float64(d) / float64(f.total)
	}
	var covered time.Duration
	for _, l := range layers {
		r.put(l+".self_ms", ms(f.self[l])/n)
		r.put(l+".self_pct", pct(f.self[l]))
		r.put(l+".incl_pct", pct(f.incl[l]))
		covered += f.self[l]
	}
	r.put("bench.trace_coverage_pct", pct(covered))
	per := func(l string, count uint64) float64 {
		if count == 0 {
			return 0
		}
		return float64(f.incl[l]) / float64(count)
	}
	r.put("kernel.ns_per_dispatch", per("kernel", work.dispatches))
	r.put("rbs.ns_per_dispatch", per("rbs", work.dispatches))
	r.put("ctlplane.ns_per_visit", per("ctlplane", work.visits))
	epochs := func(quiet [][]sample) float64 {
		return median(perRound(quiet, func(_ int, s sample) float64 { return epochMS(s) }))
	}
	r.put("bench.trace_overhead_pct", 100*(epochs(traced)/epochs(untraced)-1))
}

// share is part/whole, or 0 for an empty whole.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// runtimeCounters are cumulative runtime/metrics readings.
type runtimeCounters struct {
	autoGC, gcCPU, totalCPU float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/cycles/automatic:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		autoGC:   float64(s[0].Value.Uint64()),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
	}
}

// peakRSS is the process's resident-set high-water mark in MB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Maxrss) * 1024 / mb // Linux reports kilobytes
}
