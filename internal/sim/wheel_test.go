package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// refEvent is the reference model's view of one pending event: the old
// container/heap semantics, restated as "sort by (when, seq)".
type refEvent struct {
	when Time
	seq  uint64
	id   int
}

// refModel is an executable specification of the event queue: a plain
// sorted list with the exact (when, seq) FIFO order the heap-based engine
// provided. The differential tests drive it in lockstep with the wheel.
type refModel struct {
	pending []refEvent
	seq     uint64
}

func (m *refModel) schedule(when Time, id int) {
	m.pending = append(m.pending, refEvent{when: when, seq: m.seq, id: id})
	m.seq++
}

func (m *refModel) cancel(id int) {
	for i, ev := range m.pending {
		if ev.id == id {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return
		}
	}
}

func (m *refModel) reschedule(id int, when Time) {
	m.cancel(id)
	m.schedule(when, id)
}

// popNext removes and returns the id of the earliest pending event, with
// ok=false when empty.
func (m *refModel) popNext() (int, Time, bool) {
	if len(m.pending) == 0 {
		return 0, 0, false
	}
	best := 0
	for i := 1; i < len(m.pending); i++ {
		if m.pending[i].when < m.pending[best].when ||
			(m.pending[i].when == m.pending[best].when && m.pending[i].seq < m.pending[best].seq) {
			best = i
		}
	}
	ev := m.pending[best]
	m.pending = append(m.pending[:best], m.pending[best+1:]...)
	return ev.id, ev.when, true
}

// wheelDriver drives an Engine and the reference model with the same
// operation sequence and asserts identical fire order.
type wheelDriver struct {
	t     *testing.T
	e     *Engine
	model *refModel
	// liveByID tracks the engine-side handle for every scheduled id.
	liveByID map[int]*Event
	ids      []int // live ids, for random selection
	nextID   int
	fired    []int
}

func newWheelDriver(t *testing.T) *wheelDriver {
	return &wheelDriver{
		t:        t,
		e:        NewEngine(),
		model:    &refModel{},
		liveByID: make(map[int]*Event),
	}
}

func (d *wheelDriver) schedule(delta Duration) {
	id := d.nextID
	d.nextID++
	when := d.e.Now().Add(delta)
	ev := d.e.At(when, func(now Time) {
		d.fired = append(d.fired, id)
		d.drop(id)
	})
	d.liveByID[id] = ev
	d.ids = append(d.ids, id)
	d.model.schedule(when, id)
}

func (d *wheelDriver) drop(id int) {
	delete(d.liveByID, id)
	for i, v := range d.ids {
		if v == id {
			d.ids = append(d.ids[:i], d.ids[i+1:]...)
			return
		}
	}
}

func (d *wheelDriver) cancel(id int) {
	d.liveByID[id].Cancel()
	d.drop(id)
	d.model.cancel(id)
}

func (d *wheelDriver) reschedule(id int, delta Duration) {
	when := d.e.Now().Add(delta)
	d.e.Reschedule(d.liveByID[id], when)
	d.model.reschedule(id, when)
}

func (d *wheelDriver) stepBoth() bool {
	wantID, wantWhen, ok := d.model.popNext()
	before := len(d.fired)
	if !d.e.step() {
		if ok {
			d.t.Fatalf("engine empty but model still has event id=%d at %v", wantID, wantWhen)
		}
		return false
	}
	if !ok {
		d.t.Fatalf("engine fired an event but model is empty")
	}
	if len(d.fired) != before+1 {
		d.t.Fatalf("step fired %d events, want 1", len(d.fired)-before)
	}
	got := d.fired[len(d.fired)-1]
	if got != wantID {
		d.t.Fatalf("fire order diverged: engine fired id=%d, model expects id=%d at %v", got, wantID, wantWhen)
	}
	if d.e.Now() != wantWhen {
		d.t.Fatalf("clock diverged: engine at %v, model at %v", d.e.Now(), wantWhen)
	}
	return true
}

func (d *wheelDriver) checkPending() {
	if d.e.Pending() != len(d.model.pending) {
		d.t.Fatalf("Pending() = %d, model has %d live events", d.e.Pending(), len(d.model.pending))
	}
}

// deltas spanning every placement class: same-slot, near wheel, far wheel,
// and overflow (beyond the ~33.5 ms wheel horizon).
var deltaClasses = []Duration{
	0,                                // same instant (FIFO tie-break)
	500 * Nanosecond,                 // same slot
	100 * Microsecond,                // adjacent slot
	Millisecond,                      // a few slots out (the kernel-tick distance)
	10 * Millisecond,                 // mid-wheel
	30 * Millisecond,                 // near the horizon edge
	40 * Millisecond,                 // just past the horizon: overflow
	Second,                           // deep overflow
	10 * Second,                      // deeper overflow
	33*Millisecond + 500*Microsecond, // straddles the horizon boundary
}

func randomDelta(r *rand.Rand) Duration {
	base := deltaClasses[r.Intn(len(deltaClasses))]
	return base + Duration(r.Int63n(int64(50*Microsecond)))
}

// TestWheelDifferentialRandomOps drives the wheel and the reference model
// side by side with random schedule/cancel/reschedule/fire sequences and
// asserts identical fire order — the wheel must be observationally
// indistinguishable from the (when, seq) heap it replaced.
func TestWheelDifferentialRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := newWheelDriver(t)
		for op := 0; op < 2000; op++ {
			switch {
			case len(d.ids) == 0 || r.Intn(10) < 4:
				d.schedule(randomDelta(r))
			case r.Intn(10) < 2:
				d.cancel(d.ids[r.Intn(len(d.ids))])
			case r.Intn(10) < 2:
				d.reschedule(d.ids[r.Intn(len(d.ids))], randomDelta(r))
			default:
				d.stepBoth()
			}
			d.checkPending()
		}
		// Drain completely: the tail order must match too.
		for d.stepBoth() {
		}
		d.checkPending()
		if d.e.Pending() != 0 {
			t.Fatalf("seed %d: %d events left after drain", seed, d.e.Pending())
		}
	}
}

// TestWheelRescheduleFromCallback exercises the periodic-timer idiom: an
// event that re-arms itself from inside its own callback, checked against
// the model.
func TestWheelRescheduleFromCallback(t *testing.T) {
	e := NewEngine()
	var fires []Time
	var ev *Event
	period := 7 * Millisecond
	ev = e.At(Time(period), func(now Time) {
		fires = append(fires, now)
		if len(fires) < 50 {
			e.Reschedule(ev, now.Add(period))
		}
	})
	e.Run()
	if len(fires) != 50 {
		t.Fatalf("periodic event fired %d times, want 50", len(fires))
	}
	for i, at := range fires {
		if want := Time(period) * Time(i+1); at != want {
			t.Fatalf("fire %d at %v, want %v", i, at, want)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after periodic chain ended", e.Pending())
	}
	if e.PoolSize() != 1 {
		t.Fatalf("PoolSize() = %d, want 1 (the single reused event)", e.PoolSize())
	}
}

// TestWheelPendingExcludesCanceled is the Pending() contract: canceled
// events are removed eagerly and never counted.
func TestWheelPendingExcludesCanceled(t *testing.T) {
	e := NewEngine()
	var evs []*Event
	for i := 0; i < 100; i++ {
		evs = append(evs, e.After(Duration(i)*Millisecond+Second, func(Time) {}))
	}
	if e.Pending() != 100 {
		t.Fatalf("Pending() = %d, want 100", e.Pending())
	}
	for i, ev := range evs {
		if i%2 == 0 {
			ev.Cancel()
		}
	}
	if e.Pending() != 50 {
		t.Fatalf("Pending() = %d after canceling half, want 50", e.Pending())
	}
	e.Run()
	if e.Fired() != 50 {
		t.Fatalf("Fired() = %d, want 50", e.Fired())
	}
}

// TestWheelPoolReuse checks that the free list actually recycles: a
// schedule/fire loop must stop growing the pool after warm-up.
func TestWheelPoolReuse(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 1000; i++ {
		e.After(Microsecond, func(Time) {})
		e.step()
	}
	if e.PoolSize() != 1 {
		t.Fatalf("PoolSize() = %d after serial schedule/fire, want 1", e.PoolSize())
	}
}

// TestWheelOrderMatchesSortAcrossHorizons floods every horizon class at
// once and checks the global fire order against a stable sort.
func TestWheelOrderMatchesSortAcrossHorizons(t *testing.T) {
	e := NewEngine()
	r := rand.New(rand.NewSource(99))
	type rec struct {
		when Time
		seq  int
	}
	var want []rec
	var got []rec
	for i := 0; i < 5000; i++ {
		when := e.Now().Add(randomDelta(r))
		seq := i
		want = append(want, rec{when, seq})
		e.At(when, func(now Time) { got = append(got, rec{now, seq}) })
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].when < want[j].when })
	e.Run()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order diverged at %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// FuzzWheelDifferential interprets fuzz bytes as an op script against the
// reference model, so `go test -fuzz=FuzzWheelDifferential ./internal/sim`
// can search for ordering divergences the random tests miss.
func FuzzWheelDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 40, 80, 120, 200, 7, 7, 7})
	f.Add([]byte{255, 254, 253, 0, 0, 0, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		d := newWheelDriver(t)
		for i := 0; i < len(script); i++ {
			b := script[i]
			switch {
			case len(d.ids) == 0 || b < 110:
				cls := deltaClasses[int(b)%len(deltaClasses)]
				d.schedule(cls + Duration(b)*Microsecond)
			case b < 150:
				d.cancel(d.ids[int(b)%len(d.ids)])
			case b < 190:
				cls := deltaClasses[int(b)%len(deltaClasses)]
				d.reschedule(d.ids[int(b)%len(d.ids)], cls)
			default:
				d.stepBoth()
			}
			d.checkPending()
		}
		for d.stepBoth() {
		}
	})
}
