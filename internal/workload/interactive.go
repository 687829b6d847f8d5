package workload

import (
	"repro/internal/kernel"
	"repro/internal/sim"
)

// InteractiveJob models a tty server: it blocks on a wait queue until an
// event arrives, handles it with a short CPU burst, and blocks again. The
// controller's interactive heuristic estimates its proportion from those
// bursts.
type InteractiveJob struct {
	TTY   *kernel.WaitQueue
	Burst sim.Cycles

	waiting bool
	handled int64
	// latency bookkeeping: set by the event source at wake time.
	lastEvent sim.Time
	latencies []sim.Duration
}

// Next implements kernel.Program.
func (ij *InteractiveJob) Next(t *kernel.Thread, now sim.Time) kernel.Op {
	ij.waiting = !ij.waiting
	if ij.waiting {
		return kernel.Block(ij.TTY)
	}
	if ij.lastEvent > 0 {
		ij.latencies = append(ij.latencies, now.Sub(ij.lastEvent))
	}
	ij.handled++
	return kernel.Compute(ij.Burst)
}

// Handled returns the number of events processed.
func (ij *InteractiveJob) Handled() int64 { return ij.handled }

// Latencies returns wake-to-run latencies for processed events.
func (ij *InteractiveJob) Latencies() []sim.Duration { return ij.latencies }

// EventSource periodically wakes an interactive job, recording event times
// so latency can be measured. It models the user (or X server input).
type EventSource struct {
	Kernel   *kernel.Kernel
	Target   *InteractiveJob
	Interval sim.Duration

	sleeping bool
	events   int64
}

// Next implements kernel.Program.
func (es *EventSource) Next(t *kernel.Thread, now sim.Time) kernel.Op {
	es.sleeping = !es.sleeping
	if es.sleeping {
		return kernel.Sleep(es.Interval)
	}
	es.Target.lastEvent = now
	es.events++
	es.Kernel.WakeOne(es.Target.TTY)
	return kernel.Compute(1000)
}

// Events returns the number of events generated.
func (es *EventSource) Events() int64 { return es.events }
