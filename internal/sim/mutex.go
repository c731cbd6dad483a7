package sim

import "slices"

// Mutex is a virtual-time mutual-exclusion lock with FIFO direct
// handoff. It records the contention statistics the paper monitors
// ("failed lock attempts", §5.1).
type Mutex struct {
	e       *Engine
	name    string
	owner   *Thread
	waiters []*Thread
	// addr, when non-zero, is the simulated address of the lock word;
	// acquire and release then perform a store through the cache model,
	// so adjacently laid-out locks (a static mutex array, for example)
	// exhibit false sharing between processors.
	addr uint64

	// Acquires counts successful acquisitions (Lock and TryLock).
	Acquires int64
	// Contended counts Lock calls that found the mutex held.
	Contended int64
	// FailedTry counts TryLock calls that found the mutex held.
	FailedTry int64
	// WaitTime accumulates virtual cycles threads spent blocked here.
	WaitTime int64
}

// NewMutexAt creates a mutex registered on the engine whose lock word
// lives at the given simulated address, making its coherence traffic
// visible to the cache model. Address zero means no lock word: the
// mutex then charges only lock prices.
func (e *Engine) NewMutexAt(name string, addr uint64) *Mutex {
	m := &Mutex{e: e, name: name, addr: addr}
	e.mutexes = append(e.mutexes, m)
	return m
}

// touch performs the lock word's atomic store through the cache model.
func (m *Mutex) touch(t *Thread) {
	if m.addr != 0 {
		m.e.cache.access(t, t.cpu(), m.addr, 8, true)
	}
}

// Name reports the mutex name.
func (m *Mutex) Name() string { return m.name }

// Lock acquires the mutex, blocking the calling thread in virtual time
// if it is held. Handoff is FIFO, so the lock is fair.
func (m *Mutex) Lock(c *Ctx) {
	t := c.t
	t.advance(m.e.cost.LockAcquire)
	m.touch(t)
	if m.owner == nil {
		m.owner = t
		m.Acquires++
		t.LockAcquires++
		m.e.trace(t, EvLockAcquire, m.name)
		t.maybeYield()
		return
	}
	// Contended: block until handed the lock.
	m.Contended++
	t.LockContended++
	m.e.trace(t, EvLockContended, m.name)
	m.waiters = append(m.waiters, t)
	start := t.clock
	t.state = stateBlocked
	t.e.running--
	t.yield()
	// Resumed as owner; clock was set by the releaser.
	wait := t.clock - start
	t.LockWaitTime += wait
	m.WaitTime += wait
	m.Acquires++
	t.LockAcquires++
	m.e.trace(t, EvLockAcquire, m.name)
}

// TryLock attempts to acquire the mutex without blocking and reports
// whether it succeeded.
func (m *Mutex) TryLock(c *Ctx) bool {
	t := c.t
	t.advance(m.e.cost.TryLock)
	m.touch(t)
	ok := m.owner == nil
	if ok {
		m.owner = t
		m.Acquires++
		t.LockAcquires++
	} else {
		m.FailedTry++
	}
	t.maybeYield()
	return ok
}

// Unlock releases the mutex. If threads are waiting, ownership is handed
// directly to the first waiter, which resumes after the handoff latency.
func (m *Mutex) Unlock(c *Ctx) {
	t := c.t
	if m.owner != t {
		panic("sim: Unlock of mutex not held by calling thread: " + m.name)
	}
	t.advance(m.e.cost.LockRelease)
	m.touch(t)
	m.e.trace(t, EvLockRelease, m.name)
	if len(m.waiters) == 0 {
		m.owner = nil
		t.maybeYield()
		return
	}
	w := m.waiters[0]
	m.waiters = slices.Delete(m.waiters, 0, 1) // clears the vacated tail
	m.owner = w
	m.e.traceArgs(t, EvLockHandoff, m.name, int64(w.slot), int64(len(m.waiters)))
	m.e.wake(t, w, m.e.cost.LockHandoff)
	t.maybeYield()
}
