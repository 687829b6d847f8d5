// Package trace records scheduling events from the simulated kernel and
// derives the metrics an OS developer would pull from a real trace:
// per-thread run-segment statistics, wake-to-dispatch scheduling latency
// distributions, and a raw event log exportable as CSV.
package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Kind labels a trace event.
type Kind int

// Event kinds.
const (
	Dispatch Kind = iota
	Deschedule
	Wake
	Block
	Migrate
)

func (k Kind) String() string {
	switch k {
	case Dispatch:
		return "dispatch"
	case Deschedule:
		return "deschedule"
	case Wake:
		return "wake"
	case Block:
		return "block"
	case Migrate:
		return "migrate"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one recorded scheduling event.
type Event struct {
	At     sim.Time
	Kind   Kind
	Thread string
	// Ran is the segment length for Deschedule events.
	Ran sim.Duration
	// On is the wait-queue name for Block events.
	On string
	// CPU is the CPU the event happened on (the destination CPU for
	// Migrate events); From is the source CPU of a Migrate event.
	CPU  int
	From int
}

// threadStats accumulates per-thread aggregates.
type threadStats struct {
	// name is the interned thread-name string, shared by every log record
	// of the thread.
	name     string
	segments int
	totalRun sim.Duration
	longest  sim.Duration
	wakes    int
	lastWake sim.Time
	wakePend bool
	// latencies holds wake-to-dispatch samples in seconds. Above the
	// maxLatencySamples bound it becomes a uniform reservoir over all
	// latSeen samples, so per-thread memory stays bounded at 10k+ thread
	// scale while percentiles stay representative.
	latencies []float64
	latSeen   int
}

// Recorder implements kernel.Tracer. It keeps the full event log (bounded
// by MaxEvents) plus always-on aggregates.
//
// The hot path is allocation-conscious so that tracing-enabled runs do not
// distort overhead measurements (Figure 8): per-thread stats are cached by
// thread pointer (no string hashing per event), thread-name strings are
// interned once per thread, and the event log grows into a buffer that
// Reset reuses across runs.
type Recorder struct {
	// MaxEvents bounds the raw log; 0 means keep everything. Aggregates
	// are unaffected by the bound. When set, the buffer is preallocated to
	// the bound so logging never reallocates.
	MaxEvents int
	// MultiCPU adds the cpu column to the CSV log. It is off by default so
	// single-CPU traces stay byte-identical to the pre-SMP format.
	MultiCPU bool

	events  []Event
	dropped int
	threads map[string]*threadStats
	// byThread caches the stats entry (and the interned name string) per
	// thread pointer, so the per-event path is two map-free field reads.
	// The generation guards against pooled slot reissue: a recycled thread
	// object must re-resolve its name instead of inheriting the previous
	// occupant's cache entry.
	byThread map[*kernel.Thread]traceCache
	// rng drives reservoir replacement; fixed seed keeps runs replayable.
	rng *sim.RNG
}

// traceCache is one entry of the pointer-keyed stats cache: valid only
// while the thread object's generation still matches.
type traceCache struct {
	st  *threadStats
	gen uint32
}

var _ kernel.Tracer = (*Recorder)(nil)

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		threads:  make(map[string]*threadStats),
		byThread: make(map[*kernel.Thread]traceCache),
		rng:      sim.NewRNG(0x7ace5eed),
	}
}

// Reset clears the event log and aggregates while keeping the log buffer's
// capacity, so a recorder can be reused across experiment runs without
// reallocating.
func (r *Recorder) Reset() {
	r.events = r.events[:0]
	r.dropped = 0
	clear(r.threads)
	clear(r.byThread)
}

func (r *Recorder) stats(t *kernel.Thread) *threadStats {
	gen := t.Gen()
	if c, ok := r.byThread[t]; ok && c.gen == gen {
		return c.st
	}
	name := t.Name()
	st, ok := r.threads[name]
	if !ok {
		st = &threadStats{name: name}
		r.threads[name] = st
	}
	r.byThread[t] = traceCache{st: st, gen: gen}
	return st
}

func (r *Recorder) log(at sim.Time, kind Kind, thread string, ran sim.Duration, on string, cpu, from int) {
	if r.MaxEvents > 0 {
		if len(r.events) >= r.MaxEvents {
			r.dropped++
			return
		}
		if cap(r.events) == 0 {
			r.events = make([]Event, 0, r.MaxEvents)
		}
	}
	r.events = append(r.events, Event{At: at, Kind: kind, Thread: thread, Ran: ran, On: on, CPU: cpu, From: from})
}

// maxLatencySamples bounds each thread's wake-to-dispatch latency buffer;
// past the bound, reservoir sampling keeps a uniform sample of the whole
// run (deterministic: the reservoir PRNG is fixed-seed).
const maxLatencySamples = 4096

// addLatency records one wake-to-dispatch sample, reservoir-sampling past
// maxLatencySamples so per-thread memory cannot grow without limit.
func (r *Recorder) addLatency(st *threadStats, v float64) {
	st.latSeen++
	if len(st.latencies) < maxLatencySamples {
		st.latencies = append(st.latencies, v)
		return
	}
	if j := r.rng.Intn(st.latSeen); j < len(st.latencies) {
		st.latencies[j] = v
	}
}

// OnDispatch implements kernel.Tracer.
func (r *Recorder) OnDispatch(now sim.Time, t *kernel.Thread) {
	st := r.stats(t)
	st.segments++
	if st.wakePend {
		st.wakePend = false
		r.addLatency(st, now.Sub(st.lastWake).Seconds())
	}
	r.log(now, Dispatch, st.name, 0, "", t.CPU(), 0)
}

// OnDeschedule implements kernel.Tracer.
func (r *Recorder) OnDeschedule(now sim.Time, t *kernel.Thread, ran sim.Duration) {
	st := r.stats(t)
	st.totalRun += ran
	if ran > st.longest {
		st.longest = ran
	}
	r.log(now, Deschedule, st.name, ran, "", t.CPU(), 0)
}

// OnWake implements kernel.Tracer.
func (r *Recorder) OnWake(now sim.Time, t *kernel.Thread) {
	st := r.stats(t)
	st.wakes++
	st.lastWake = now
	st.wakePend = true
	r.log(now, Wake, st.name, 0, "", t.CPU(), 0)
}

// OnBlock implements kernel.Tracer. It logs without touching aggregates
// (matching the original recorder), so a thread that only ever blocks does
// not grow a summary row.
func (r *Recorder) OnBlock(now sim.Time, t *kernel.Thread, wq *kernel.WaitQueue) {
	r.log(now, Block, t.Name(), 0, wq.Label(), t.CPU(), 0)
}

// OnMigration implements kernel.Tracer. Like OnBlock it logs without
// touching aggregates, so a thread that migrates before ever running does
// not grow a summary row.
func (r *Recorder) OnMigration(now sim.Time, t *kernel.Thread, from, to int) {
	r.log(now, Migrate, t.Name(), 0, "", to, from)
}

// Events returns the raw log (possibly truncated at MaxEvents).
func (r *Recorder) Events() []Event { return r.events }

// Dropped returns how many events the MaxEvents bound discarded.
func (r *Recorder) Dropped() int { return r.dropped }

// Summary is the per-thread aggregate view.
type Summary struct {
	Thread      string
	Segments    int
	TotalRun    sim.Duration
	MeanSegment sim.Duration
	Longest     sim.Duration
	Wakes       int
	// LatencyP50/P99 are wake-to-dispatch scheduling latencies.
	LatencyP50, LatencyP99 sim.Duration
}

// Summaries returns per-thread aggregates sorted by thread name.
func (r *Recorder) Summaries() []Summary {
	names := make([]string, 0, len(r.threads))
	for n := range r.threads {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Summary, 0, len(names))
	var sorted []float64 // latency scratch, reused across threads
	for _, n := range names {
		st := r.threads[n]
		s := Summary{
			Thread:   n,
			Segments: st.segments,
			TotalRun: st.totalRun,
			Longest:  st.longest,
			Wakes:    st.wakes,
		}
		if st.segments > 0 {
			s.MeanSegment = sim.Duration(int64(st.totalRun) / int64(st.segments))
		}
		if len(st.latencies) > 0 {
			sorted = metrics.SortedCopy(sorted, st.latencies)
			s.LatencyP50 = sim.Duration(metrics.PercentileSorted(sorted, 50) * float64(sim.Second))
			s.LatencyP99 = sim.Duration(metrics.PercentileSorted(sorted, 99) * float64(sim.Second))
		}
		out = append(out, s)
	}
	return out
}

// SchedulingLatencies returns the raw wake-to-dispatch latency samples for
// the named thread, in seconds.
func (r *Recorder) SchedulingLatencies(thread string) []float64 {
	if st, ok := r.threads[thread]; ok {
		return st.latencies
	}
	return nil
}

// WriteCSV dumps the raw event log. With MultiCPU set a cpu column is
// appended (migrations show "from>to"); without it the format — and, on a
// single-CPU machine, every byte — matches the pre-SMP recorder.
func (r *Recorder) WriteCSV(w io.Writer) error {
	header := "time_s,kind,thread,ran_us,on"
	if r.MultiCPU {
		header += ",cpu"
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, ev := range r.events {
		var err error
		if r.MultiCPU {
			cpu := fmt.Sprintf("%d", ev.CPU)
			if ev.Kind == Migrate {
				cpu = fmt.Sprintf("%d>%d", ev.From, ev.CPU)
			}
			_, err = fmt.Fprintf(w, "%.6f,%s,%s,%.1f,%s,%s\n",
				ev.At.Seconds(), ev.Kind, ev.Thread,
				float64(ev.Ran)/float64(sim.Microsecond), ev.On, cpu)
		} else {
			_, err = fmt.Fprintf(w, "%.6f,%s,%s,%.1f,%s\n",
				ev.At.Seconds(), ev.Kind, ev.Thread,
				float64(ev.Ran)/float64(sim.Microsecond), ev.On)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// PrintSummaries writes a per-thread table.
func (r *Recorder) PrintSummaries(w io.Writer) {
	fmt.Fprintf(w, "%-12s %9s %12s %12s %12s %7s %12s %12s\n",
		"THREAD", "SEGMENTS", "TOTAL-RUN", "MEAN-SEG", "LONGEST", "WAKES", "LAT-P50", "LAT-P99")
	for _, s := range r.Summaries() {
		fmt.Fprintf(w, "%-12s %9d %12v %12v %12v %7d %12v %12v\n",
			s.Thread, s.Segments, s.TotalRun, s.MeanSegment, s.Longest, s.Wakes,
			s.LatencyP50, s.LatencyP99)
	}
}
