package realrate

import (
	"io"

	"repro/internal/trace"
)

// Tracing provides access to an enabled scheduler trace: the event log of
// every dispatch, deschedule, wake, block and migration, exportable as CSV.
type Tracing struct {
	rec *trace.Recorder
}

// EnableTracing starts recording scheduler events (dispatches,
// deschedules, wakes, blocks and migrations) into an unbounded event log.
// Call before Run.
//
// The recorder is fed through the same observer hub as System.Observe, so
// tracing and observers compose.
func (s *System) EnableTracing() *Tracing {
	// On a multi-CPU machine the CSV grows a cpu column (migrations show
	// "from>to"); single-CPU traces keep the pre-SMP format byte-for-byte.
	rec := &trace.Recorder{MultiCPU: s.kern.NumCPUs() > 1}
	s.hub.rec = rec
	s.hub.install()
	return &Tracing{rec: rec}
}

// WriteCSV dumps the event log (time, kind, thread, segment length, wait
// queue, and on a multi-CPU machine the CPU).
func (t *Tracing) WriteCSV(w io.Writer) error { return t.rec.WriteCSV(w) }
