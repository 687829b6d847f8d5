package realrate

import (
	"time"

	"repro/internal/kernel"
	"repro/internal/progress"
	"repro/internal/sim"
)

// Queue is a bounded byte buffer with a symbiotic interface: its fill
// level, size, and each endpoint's role are visible to the scheduler, which
// is how real-rate threads' progress is monitored.
type Queue struct {
	sys *System
	q   *kernel.Queue
}

// NewQueue creates a bounded buffer of the given capacity in bytes.
// Wrappers are carved from a slab chunk, like the kernel queues beneath
// them, so a session-pipeline storm pays 1/256th of an allocation each.
func (s *System) NewQueue(name string, size int64) *Queue {
	if len(s.qSlab) == 0 {
		s.qSlab = make([]Queue, 256)
	}
	q := &s.qSlab[0]
	s.qSlab = s.qSlab[1:]
	*q = Queue{sys: s, q: s.kern.NewQueue(name, size)}
	return q
}

// Name returns the queue's name.
func (q *Queue) Name() string { return q.q.Name() }

// Size returns the capacity in bytes.
func (q *Queue) Size() int64 { return q.q.Size() }

// Fill returns the bytes currently buffered.
func (q *Queue) Fill() int64 { return q.q.Fill() }

// FillLevel returns Fill/Size in [0, 1] — the progress signal.
func (q *Queue) FillLevel() float64 { return q.q.FillLevel() }

// Produced returns total bytes ever enqueued.
func (q *Queue) Produced() int64 { return q.q.Produced() }

// Consumed returns total bytes ever dequeued.
func (q *Queue) Consumed() int64 { return q.q.Consumed() }

// Recycle empties the queue and zeroes its counters so the object can be
// reused for a new logical stream — a pooled session pipeline reattaches
// a recycled queue instead of allocating one per session. The caller must
// prove the previous life is over: Recycle panics if any thread is
// blocked on the queue, and every thread linked to it must have exited
// (their progress registrations are torn down with them at exit).
func (q *Queue) Recycle() { q.q.Reset() }

// QueueLink declares a thread's role on a queue — the canonical
// ProgressSource, and the public form of the meta-interface registration
// call.
type QueueLink struct {
	queue *Queue
	role  progress.Role
}

// ProducerOf links the spawned thread as the producer of q.
func ProducerOf(q *Queue) QueueLink {
	return QueueLink{queue: q, role: progress.Producer}
}

// ConsumerOf links the spawned thread as the consumer of q.
func ConsumerOf(q *Queue) QueueLink {
	return QueueLink{queue: q, role: progress.Consumer}
}

// Pressure implements ProgressSource: R · (fill/size − ½).
func (l QueueLink) Pressure(now time.Duration) float64 {
	return progress.QueueMetric{Queue: l.queue.q, Role: l.role}.Pressure(sim.Time(now))
}

// Describe implements ProgressSource.
func (l QueueLink) Describe() string {
	return progress.QueueMetric{Queue: l.queue.q, Role: l.role}.Describe()
}

// Mutex is a simulated kernel mutex with FIFO handoff and, deliberately,
// no priority inheritance — the Mars Pathfinder scenario depends on it.
type Mutex struct {
	m *kernel.Mutex
}

// NewMutex returns an unlocked mutex on the system's machine.
func (s *System) NewMutex(name string) *Mutex {
	return &Mutex{m: kernel.NewMutex(name)}
}

// Name returns the mutex's name.
func (m *Mutex) Name() string { return m.m.Name() }

// Contended returns how many lock attempts had to wait.
func (m *Mutex) Contended() uint64 { return m.m.Contended() }

// Acquisitions returns how many lock operations succeeded.
func (m *Mutex) Acquisitions() uint64 { return m.m.Acquisitions() }

// WaitQueue is a raw blocking primitive: threads Wait on it and other
// threads WakeOne them — the "tty" of interactive jobs.
type WaitQueue struct {
	sys *System
	wq  *kernel.WaitQueue
}

// NewWaitQueue returns an empty wait queue.
func (s *System) NewWaitQueue(name string) *WaitQueue {
	return &WaitQueue{sys: s, wq: kernel.NewWaitQueue(name)}
}

// WakeOne wakes the longest-waiting thread, reporting whether one waited.
func (w *WaitQueue) WakeOne() bool { return w.sys.kern.WakeOne(w.wq) }

// Waiters returns the number of parked threads.
func (w *WaitQueue) Waiters() int { return w.wq.Len() }
