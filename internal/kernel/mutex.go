package kernel

import "fmt"

// Mutex is a simulated kernel mutex with FIFO direct-handoff semantics: on
// unlock, ownership transfers to the longest-waiting thread.
//
// Deliberately, there is no priority inheritance: the Mars Pathfinder
// scenario (§2 of the paper) depends on a plain mutex so that a fixed-
// priority policy exhibits priority inversion while the real-rate scheduler
// does not starve the lock holder.
type Mutex struct {
	name    string
	owner   *Thread
	waiters WaitQueue
	// acquisitions counts successful lock operations, for tests.
	acquisitions uint64
	// contended counts lock attempts that had to wait.
	contended uint64
}

// NewMutex returns an unlocked mutex. Its waiters park on a wait queue
// named after it, so a traced block event names the lock.
func NewMutex(name string) *Mutex {
	return &Mutex{name: name, waiters: WaitQueue{name: name + ".waiters"}}
}

// Name returns the mutex's name.
func (m *Mutex) Name() string { return m.name }

// Owner returns the thread holding the mutex, or nil.
func (m *Mutex) Owner() *Thread { return m.owner }

// Waiters returns the number of threads blocked on the mutex.
func (m *Mutex) Waiters() int { return m.waiters.Len() }

// Acquisitions returns the number of successful lock operations.
func (m *Mutex) Acquisitions() uint64 { return m.acquisitions }

// Contended returns the number of lock attempts that blocked.
func (m *Mutex) Contended() uint64 { return m.contended }

// tryLock attempts to acquire m for t without blocking. The owner's
// held-mutex count keeps a lock-holding thread out of the recycling pool
// (see Kernel.recycleThread).
func (m *Mutex) tryLock(t *Thread) bool {
	if m.owner == nil {
		m.owner = t
		t.ownedMutexes++
		m.acquisitions++
		return true
	}
	if m.owner == t {
		panic(fmt.Sprintf("kernel: %v recursively locking mutex %q", t, m.name))
	}
	m.contended++
	return false
}

// unlock releases m held by t and returns the thread ownership was handed
// to, or nil when no one was waiting.
func (m *Mutex) unlock(t *Thread) *Thread {
	if m.owner != t {
		panic(fmt.Sprintf("kernel: %v unlocking mutex %q owned by %v", t, m.name, m.owner))
	}
	next := m.waiters.pop()
	m.owner = next
	t.ownedMutexes--
	if next != nil {
		m.acquisitions++
		next.ownedMutexes++
		next.waitingOn = nil
	}
	return next
}
