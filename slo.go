package realrate

import (
	"time"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// SLO accounting makes wake→dispatch latency a first-class, always-on
// (when Config.Overload is set) system-wide tail-latency metric: the time
// between a thread becoming runnable and actually getting a CPU is the
// user-visible scheduling latency, and its p99/p999 against a target is
// what "degraded" means to a caller. The tracker also keeps a second,
// coarser dimension: end-to-end session latencies recorded explicitly
// through System.ObserveSessionLatency against OverloadConfig.SessionSLO,
// in total and per session kind.

// sloSamples bounds each series' reservoir: past it, reservoir sampling
// (fixed-seed, deterministic) keeps a uniform sample of the whole run, so
// 10k-thread storms don't grow the heap without bound.
const sloSamples = 4096

// sloSeries is one reservoir of latency samples (in seconds) plus exact
// attainment counters — attainment is counted per sample, not estimated
// from the reservoir. Each series owns its reservoir RNG, seeded from the
// series' identity alone: which samples a reservoir keeps then depends
// only on that series' own sample stream, never on how samples of other
// series interleave with it in observer-callback order.
type sloSeries struct {
	seen     uint64
	attained uint64
	samples  []float64
	rng      *sim.RNG
}

func newSLOSeries(dim byte, key string) *sloSeries {
	return &sloSeries{rng: sim.NewRNG(sloSeed(dim, key))}
}

// sloSeed derives a reservoir seed from the series' identity (dimension
// tag + key) with an FNV-1a hash — stable across runs and platforms.
func sloSeed(dim byte, key string) uint64 {
	h := uint64(0xcbf29ce484222325) ^ uint64(dim)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 0x100000001b3
	}
	return h
}

func (ss *sloSeries) add(lat float64, ok bool) {
	ss.seen++
	if ok {
		ss.attained++
	}
	if len(ss.samples) < sloSamples {
		ss.samples = append(ss.samples, lat)
		return
	}
	if i := ss.rng.Intn(int(ss.seen)); i < sloSamples {
		ss.samples[i] = lat
	}
}

// sloTracker is installed on the observer hub when Config.Overload is
// set; the hub feeds it every OnWake/OnDispatch edge. The pending wake
// instant lives on the Thread handle, so the per-sample cost is one type
// assertion on the kernel thread's User link plus reservoir arithmetic —
// no map lookups, no string hashing.
type sloTracker struct {
	target        sim.Duration
	sessionTarget sim.Duration

	// total holds the wake→dispatch dimension: one sample per closed
	// edge, across every thread, measured against target.
	total *sloSeries

	// sessTotal and sessByKind hold the session dimension: one sample per
	// ObserveSessionLatency call, measured against sessionTarget.
	sessTotal  *sloSeries
	sessByKind map[string]*sloSeries

	// scratch is the sorted copy each series of an SLO report is read
	// from in turn.
	scratch []float64
}

// DefaultLatencySLO is the wake→dispatch target used when
// OverloadConfig.LatencySLO is zero: ten timer ticks.
const DefaultLatencySLO = 10 * time.Millisecond

// DefaultSessionSLO is the end-to-end session latency target used when
// OverloadConfig.SessionSLO is zero. Sessions span several wake→dispatch
// edges plus the work between them, so the default is an order of
// magnitude above DefaultLatencySLO.
const DefaultSessionSLO = 100 * time.Millisecond

func newSLOTracker(target, sessionTarget time.Duration) *sloTracker {
	if target <= 0 {
		target = DefaultLatencySLO
	}
	if sessionTarget <= 0 {
		sessionTarget = DefaultSessionSLO
	}
	return &sloTracker{
		target:        sim.FromStd(target),
		sessionTarget: sim.FromStd(sessionTarget),
		total:         newSLOSeries('t', ""),
		sessTotal:     newSLOSeries('S', ""),
		sessByKind:    make(map[string]*sloSeries),
	}
}

// wake records the instant a thread became runnable. A thread woken twice
// before running keeps the first instant — the latency is measured from
// when it first could have run.
func (tr *sloTracker) wake(now sim.Time, t *kernel.Thread) {
	if th, ok := t.User.(*Thread); ok && !th.sloPending {
		th.sloPending, th.sloWake = true, now
	}
}

// dispatch closes a pending wake edge into one latency sample.
func (tr *sloTracker) dispatch(now sim.Time, t *kernel.Thread) {
	th, ok := t.User.(*Thread)
	if !ok || !th.sloPending {
		return // no open edge (or the controller's own thread: no SLO)
	}
	th.sloPending = false
	lat := now.Sub(th.sloWake)
	tr.total.add(lat.Seconds(), lat <= tr.target)
}

// session records one end-to-end session latency against sessionTarget.
func (tr *sloTracker) session(kind string, lat sim.Duration) {
	sec := lat.Seconds()
	within := lat <= tr.sessionTarget
	tr.sessTotal.add(sec, within)
	ss := tr.sessByKind[kind]
	if ss == nil {
		ss = newSLOSeries('s', kind)
		tr.sessByKind[kind] = ss
	}
	ss.add(sec, within)
}

// SLOStat summarizes one series of the session dimension: every session
// together, or one session kind.
type SLOStat struct {
	// Samples is the exact number of latencies recorded (the
	// percentiles are computed over a uniform reservoir of them).
	Samples uint64
	// P50, P99, P999 are the latency percentiles.
	P50, P99, P999 time.Duration
	// Attainment is the exact fraction of samples at or under the target.
	Attainment float64
}

// SLOReport is the system-wide SLO accounting snapshot.
type SLOReport struct {
	// Target is the latency SLO the attainment figures are measured
	// against (OverloadConfig.LatencySLO).
	Target time.Duration
	// Samples, Attainment and the percentiles cover every thread's
	// wake→dispatch edges together.
	Samples    uint64
	Attainment float64
	P50        time.Duration
	P99        time.Duration
	P999       time.Duration
	// SessionTarget is the end-to-end session latency SLO
	// (OverloadConfig.SessionSLO); Session aggregates every latency
	// recorded through ObserveSessionLatency against it, and Sessions
	// breaks the dimension down by session kind. The per-kind sample
	// counts sum exactly to Session.Samples — one sample per recorded
	// session, nothing dropped, nothing double-counted.
	SessionTarget time.Duration
	Session       SLOStat
	Sessions      map[string]SLOStat
}

// stat summarizes one series. Its reservoir is copied into the tracker's
// scratch buffer and sorted once; the three percentiles read that one
// sorted copy.
func (tr *sloTracker) stat(ss *sloSeries) SLOStat {
	st := SLOStat{Samples: ss.seen}
	if ss.seen > 0 {
		st.Attainment = float64(ss.attained) / float64(ss.seen)
	}
	if len(ss.samples) > 0 {
		tr.scratch = metrics.SortedCopy(tr.scratch, ss.samples)
		st.P50 = secDur(metrics.PercentileSorted(tr.scratch, 50))
		st.P99 = secDur(metrics.PercentileSorted(tr.scratch, 99))
		st.P999 = secDur(metrics.PercentileSorted(tr.scratch, 99.9))
	}
	return st
}

func secDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// ObserveSessionLatency records one end-to-end latency sample for the
// named session kind — the time from a user-level session's arrival to
// its final delivery, spanning every stage of its pipeline. It is the
// caller's declaration that one session completed; the tracker measures
// it against OverloadConfig.SessionSLO and reports the dimension through
// SLO().Session/Sessions. A no-op unless Config.Overload enabled SLO
// accounting. Latencies are clamped below at zero.
func (s *System) ObserveSessionLatency(kind string, latency time.Duration) {
	if s.slo == nil {
		return
	}
	if latency < 0 {
		latency = 0
	}
	s.slo.session(kind, sim.FromStd(latency))
}

// SLO returns the wake→dispatch latency accounting — system-wide
// p50/p99/p999 with exact SLO attainment — plus the recorded end-to-end
// session dimension. It returns a zero report unless
// Config.Overload enabled SLO accounting. Each call builds a fresh report,
// sorting every series' reservoir once, so read it once per snapshot.
func (s *System) SLO() SLOReport {
	if s.slo == nil {
		return SLOReport{}
	}
	tr := s.slo
	rep := SLOReport{
		Target:        tr.target.Std(),
		SessionTarget: tr.sessionTarget.Std(),
		Sessions:      make(map[string]SLOStat, len(tr.sessByKind)),
	}
	tot := tr.stat(tr.total)
	rep.Samples = tot.Samples
	rep.Attainment = tot.Attainment
	rep.P50, rep.P99, rep.P999 = tot.P50, tot.P99, tot.P999
	rep.Session = tr.stat(tr.sessTotal)
	for kind, ss := range tr.sessByKind {
		rep.Sessions[kind] = tr.stat(ss)
	}
	return rep
}
