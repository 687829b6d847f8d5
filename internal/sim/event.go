package sim

// Event is a scheduled callback. Events are compared by time; events at the
// same instant fire in the order they were scheduled (FIFO), which keeps the
// simulation deterministic.
//
// Events are pooled by their Engine: once an event has fired (and was not
// re-armed with Reschedule from inside its own callback) or has been
// canceled, the Engine may reuse the object for a later At/After call.
// Holders must therefore drop their reference after the event fires or is
// canceled; calling Cancel a second time on a dead event is a harmless
// no-op only until the object is reused.
type Event struct {
	when Time
	seq  uint64
	fn   func(Time)
	eng  *Engine

	// next links the event into the engine's free list while pooled.
	next *Event
	// loc records which container currently holds the event.
	loc eventLoc
	// slot is the wheel slot index while loc == locWheel.
	slot int32
	// pos is the index within the wheel slot or the overflow heap.
	pos int32

	canceled bool
}

// eventLoc identifies the container an event currently lives in.
type eventLoc int8

const (
	// locFree: in the engine's pool (or brand new), not scheduled.
	locFree eventLoc = iota
	// locDue: in the sorted imminent buffer for the current wheel slot.
	locDue
	// locWheel: in an unsorted near-horizon wheel slot.
	locWheel
	// locOverflow: in the far-horizon min-heap.
	locOverflow
	// locFiring: currently executing its callback; recycled when the
	// callback returns unless it re-arms itself via Reschedule.
	locFiring
)

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Cancel removes a pending event from the schedule. Canceling an event that
// has already fired or was already canceled is a no-op. Cancel is O(1)
// amortized: the event is unlinked from its wheel slot, due buffer, or
// overflow heap immediately and returned to the pool, so canceled events
// never linger in the queue (and Pending never counts them).
func (e *Event) Cancel() {
	if e.loc == locFree || e.loc == locFiring {
		if e.loc == locFiring {
			e.canceled = true
		}
		return
	}
	e.canceled = true
	e.eng.unlink(e)
	e.eng.live--
	e.eng.recycle(e)
}

// alloc takes an event from the pool, or makes one.
func (eg *Engine) alloc() *Event {
	ev := eg.free
	if ev == nil {
		return &Event{eng: eg}
	}
	eg.free = ev.next
	eg.pooled--
	ev.next = nil
	ev.canceled = false
	return ev
}

// recycle returns a dead event to the pool.
func (eg *Engine) recycle(ev *Event) {
	ev.loc = locFree
	ev.fn = nil
	ev.next = eg.free
	eg.free = ev
	eg.pooled++
}
