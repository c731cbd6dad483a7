package sim

// Mutex is a virtual-time mutual-exclusion lock with FIFO direct
// handoff. It records the contention statistics the paper monitors
// ("failed lock attempts", §5.1).
type Mutex struct {
	e    *Engine
	name string
	// owner is the thread holding the lock. Its record stays out of the
	// engine's free list while it is held (see Thread.held), even after
	// the thread has finished.
	owner *Thread
	// waiters[head:] are the blocked threads in FIFO order; the slots
	// before head are nil. An empty queue has head 0.
	waiters []*Thread
	head    int
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
	if m.addr == 0 {
		return
	}
	if line, one := lineOf(m.addr, 8); one {
		m.e.cache.accessLine(t, t.cpu(), line, true)
	} else {
		m.e.cache.access(t, t.cpu(), m.addr, 8, true)
	}
}

// Name reports the mutex name.
func (m *Mutex) Name() string { return m.name }

// Lock acquires the mutex, blocking the calling thread in virtual time
// if it is held. Handoff is FIFO, so the lock is fair.
func (m *Mutex) Lock(c *Ctx) {
	t := c.t
	if !t.charge(m.e.cost.LockAcquire) {
		t.advanceShared(m.e.cost.LockAcquire)
	}
	m.touch(t)
	if m.owner == nil {
		m.owner = t
		t.held++
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
	if n := len(m.waiters); n == cap(m.waiters) && 2*m.head >= n {
		// At least half the array is popped slots: slide the queue down
		// instead of growing it, so each waiter moves O(1) times.
		k := copy(m.waiters, m.waiters[m.head:])
		clear(m.waiters[k:])
		m.waiters, m.head = m.waiters[:k], 0
	}
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
	if !t.charge(m.e.cost.TryLock) {
		t.advanceShared(m.e.cost.TryLock)
	}
	m.touch(t)
	ok := m.owner == nil
	if ok {
		m.owner = t
		t.held++
		m.Acquires++
		t.LockAcquires++
	} else {
		m.FailedTry++
	}
	t.maybeYield()
	return ok
}

// queued reports how many threads are blocked in Lock.
func (m *Mutex) queued() int { return len(m.waiters) - m.head }

// Unlock releases the mutex. If threads are waiting, ownership is handed
// directly to the first waiter, which resumes after the handoff latency.
func (m *Mutex) Unlock(c *Ctx) {
	t := c.t
	if m.owner != t {
		panic("sim: Unlock of mutex not held by calling thread: " + m.name)
	}
	t.held--
	if !t.charge(m.e.cost.LockRelease) {
		t.advanceShared(m.e.cost.LockRelease)
	}
	m.touch(t)
	m.e.trace(t, EvLockRelease, m.name)
	if len(m.waiters) == 0 {
		m.owner = nil
		t.maybeYield()
		return
	}
	w := m.waiters[m.head]
	m.waiters[m.head] = nil // the array outlives the woken thread
	m.head++
	if m.head == len(m.waiters) {
		m.waiters, m.head = m.waiters[:0], 0
	}
	m.owner = w
	w.held++
	m.e.traceArgs(t, EvLockHandoff, m.name, int64(w.slot), int64(m.queued()))
	m.e.wake(t, w, m.e.cost.LockHandoff)
	t.maybeYield()
}
