// Package trace records the simulated kernel's scheduling events —
// dispatches, deschedules, wakes, blocks and migrations — as an event log
// exportable as CSV. Run-segment counts and wake-to-dispatch latencies are
// derived from the log by whoever reads it; the always-on wake→dispatch
// SLO accounting lives in the public package's SLO tracker.
package trace

import (
	"fmt"
	"io"

	"repro/internal/kernel"
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

// Recorder implements kernel.Tracer: it appends every scheduling event to
// an unbounded log, named by the thread's name at the time of the event.
// It keeps no per-thread state, so a pooled kernel slot reissued to a later
// spawn needs no guard: the next event simply logs the new occupant's name.
type Recorder struct {
	// MultiCPU adds the cpu column to the CSV log. It is off by default so
	// single-CPU traces stay byte-identical to the pre-SMP format.
	MultiCPU bool

	events []Event
}

var _ kernel.Tracer = (*Recorder)(nil)

func (r *Recorder) log(at sim.Time, kind Kind, t *kernel.Thread, ran sim.Duration, on string, cpu, from int) {
	r.events = append(r.events, Event{At: at, Kind: kind, Thread: t.Name(), Ran: ran, On: on, CPU: cpu, From: from})
}

// OnDispatch implements kernel.Tracer.
func (r *Recorder) OnDispatch(now sim.Time, t *kernel.Thread) {
	r.log(now, Dispatch, t, 0, "", t.CPU(), 0)
}

// OnDeschedule implements kernel.Tracer.
func (r *Recorder) OnDeschedule(now sim.Time, t *kernel.Thread, ran sim.Duration) {
	r.log(now, Deschedule, t, ran, "", t.CPU(), 0)
}

// OnWake implements kernel.Tracer.
func (r *Recorder) OnWake(now sim.Time, t *kernel.Thread) {
	r.log(now, Wake, t, 0, "", t.CPU(), 0)
}

// OnBlock implements kernel.Tracer.
func (r *Recorder) OnBlock(now sim.Time, t *kernel.Thread, wq *kernel.WaitQueue) {
	r.log(now, Block, t, 0, wq.Label(), t.CPU(), 0)
}

// OnMigration implements kernel.Tracer.
func (r *Recorder) OnMigration(now sim.Time, t *kernel.Thread, from, to int) {
	r.log(now, Migrate, t, 0, "", to, from)
}

// Events returns the event log.
func (r *Recorder) Events() []Event { return r.events }

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
