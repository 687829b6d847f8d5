package kernel

import (
	"fmt"

	"repro/internal/sim"
)

// Queue is an in-kernel bounded byte buffer — the analog of the shared
// queues, pipes, and sockets the paper's symbiotic interfaces expose to the
// scheduler (§3.2). Producers block while the queue lacks space; consumers
// block while it lacks data. Fill level, size, and transfer totals are
// visible to the progress monitor.
type Queue struct {
	kern *Kernel
	name string
	size int64
	fill int64

	notFull  WaitQueue
	notEmpty WaitQueue

	produced int64 // total bytes ever enqueued
	consumed int64 // total bytes ever dequeued

	// watchers are notified after every successful fill change — the push
	// half of event-driven progress tracking. Nil (the default) costs the
	// transfer paths one length check.
	watchers []QueueWatcher
}

// NewQueue creates a bounded buffer of the given byte capacity. Queues
// are carved from a slab chunk (they are never freed — a pooled session
// pipeline recycles them via Reset instead), and the wait-queue halves
// derive their trace labels lazily, so a queue costs 1/256th of an
// allocation rather than three.
func (k *Kernel) NewQueue(name string, size int64) *Queue {
	if size <= 0 {
		panic("kernel: queue size must be positive")
	}
	if len(k.queueSlab) == 0 {
		k.queueSlab = make([]Queue, 256)
	}
	q := &k.queueSlab[0]
	k.queueSlab = k.queueSlab[1:]
	*q = Queue{
		kern:     k,
		name:     name,
		size:     size,
		notFull:  WaitQueue{name: name, kind: wqNotFull},
		notEmpty: WaitQueue{name: name, kind: wqNotEmpty},
	}
	return q
}

// Name returns the queue's name.
func (q *Queue) Name() string { return q.name }

// Size returns the queue's capacity in bytes.
func (q *Queue) Size() int64 { return q.size }

// Fill returns the current fill in bytes.
func (q *Queue) Fill() int64 { return q.fill }

// FillLevel returns fill/size in [0, 1] — the raw progress signal the
// controller samples.
func (q *Queue) FillLevel() float64 { return float64(q.fill) / float64(q.size) }

// Produced returns the total bytes ever enqueued.
func (q *Queue) Produced() int64 { return q.produced }

// Consumed returns the total bytes ever dequeued.
func (q *Queue) Consumed() int64 { return q.consumed }

// QueueWatcher is notified after every successful transfer in or out of
// a watched queue — i.e. whenever the fill level (the progress signal)
// actually moves. It is an interface rather than a func so callers can
// register pooled watcher objects without a closure allocation per
// registration; implementations must be cheap and must not drive the
// machine. The event-driven control plane uses watchers to mark jobs
// dirty.
type QueueWatcher interface {
	QueueChanged()
}

// Watch registers w for fill-change notification.
func (q *Queue) Watch(w QueueWatcher) { q.watchers = append(q.watchers, w) }

// notifyWatchers fires the registered fill-change watchers.
func (q *Queue) notifyWatchers() {
	for _, w := range q.watchers {
		w.QueueChanged()
	}
}

// Reset returns the queue to its freshly-created state — empty, zero
// transfer totals, no watchers — so a pooled owner (a recycled session's
// pipeline) can reuse the object instead of allocating a new one. It
// panics if any thread is still blocked on the queue: a parked waiter
// belongs to the previous life, and carrying it across a reuse would hand
// its wakeup to a stranger.
func (q *Queue) Reset() {
	if q.notFull.Len() != 0 || q.notEmpty.Len() != 0 {
		panic(fmt.Sprintf("kernel: Reset of queue %q with blocked threads (%d producers, %d consumers)",
			q.name, q.notFull.Len(), q.notEmpty.Len()))
	}
	q.fill = 0
	q.produced = 0
	q.consumed = 0
	q.watchers = q.watchers[:0]
}

// tryProduce transfers bytes into the queue if they fit, waking one blocked
// consumer. It reports false (and transfers nothing) when full.
func (q *Queue) tryProduce(t *Thread, bytes int64, now sim.Time) bool {
	if bytes <= 0 {
		return true
	}
	if bytes > q.size {
		panic(fmt.Sprintf("kernel: %v producing %d bytes into queue %q of size %d", t, bytes, q.name, q.size))
	}
	if q.fill+bytes > q.size {
		return false
	}
	q.fill += bytes
	q.produced += bytes
	if len(q.watchers) > 0 {
		q.notifyWatchers()
	}
	if w := q.notEmpty.pop(); w != nil {
		w.waitingOn = nil
		q.kern.wake(w, now)
	}
	return true
}

// tryConsume transfers bytes out of the queue if available, waking one
// blocked producer. It reports false (and transfers nothing) when the data
// is not there yet.
func (q *Queue) tryConsume(t *Thread, bytes int64, now sim.Time) bool {
	if bytes <= 0 {
		return true
	}
	if bytes > q.size {
		panic(fmt.Sprintf("kernel: %v consuming %d bytes from queue %q of size %d", t, bytes, q.name, q.size))
	}
	if q.fill < bytes {
		return false
	}
	q.fill -= bytes
	q.consumed += bytes
	if len(q.watchers) > 0 {
		q.notifyWatchers()
	}
	if w := q.notFull.pop(); w != nil {
		w.waitingOn = nil
		q.kern.wake(w, now)
	}
	return true
}

// CheckConservation verifies produced = consumed + fill and 0 ≤ fill ≤
// size, returning an error describing any violation. Property tests call
// this after arbitrary op interleavings.
func (q *Queue) CheckConservation() error {
	if q.fill < 0 || q.fill > q.size {
		return fmt.Errorf("queue %q fill %d out of [0,%d]", q.name, q.fill, q.size)
	}
	if q.produced != q.consumed+q.fill {
		return fmt.Errorf("queue %q conservation broken: produced %d != consumed %d + fill %d",
			q.name, q.produced, q.consumed, q.fill)
	}
	return nil
}
