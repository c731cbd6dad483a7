package sim

import (
	"fmt"
	"math"
	"runtime/debug"
)

// threadState tracks where a thread is in its lifecycle.
type threadState int8

const (
	stateNew threadState = iota
	stateReady
	stateRunning
	stateBlocked
	stateDone
)

// Thread is one simulated thread of execution. All fields are maintained
// by the engine; workload code interacts with a thread only through the
// *Ctx passed to its function.
type Thread struct {
	e     *Engine
	slot  int
	name  string
	fn    func(*Ctx)
	state threadState

	// clock is the thread's virtual time: the moment its next action
	// begins.
	clock int64
	// lease is the time up to which the thread may run without yielding
	// back to the scheduler (see package comment).
	lease int64
	// lastCPU is the processor the thread most recently ran on, used to
	// charge migration costs.
	lastCPU int
	// home is slot mod P, precomputed: the processor the thread owns
	// whenever the machine is not oversubscribed. Caching it keeps an
	// integer division out of cpu(), which runs on every cache access
	// and work charge.
	home int
	// heapIdx is the thread's position in the engine's ready heap, or
	// -1 while it is not queued.
	heapIdx int

	// w is the pooled worker coroutine currently executing this thread.
	// It is bound at the thread's first dispatch and returned to the
	// engine's free list when the thread retires.
	w *worker

	// Per-thread statistics.
	LockAcquires  int64 // total successful mutex acquisitions
	LockContended int64 // acquisitions that had to wait
	LockWaitTime  int64 // virtual cycles spent waiting for mutexes
	CacheHits     int64
	CacheMisses   int64
	// CacheInvalidations counts misses on lines this thread's processor
	// had cached but another processor's write invalidated.
	CacheInvalidations int64
	Migrations         int64
	// Atomic-operation counters: CAS attempts (AtomicCASFailed is the
	// subset whose compare lost), fetch-and-adds, and plain atomic
	// loads/stores.
	AtomicCAS       int64
	AtomicCASFailed int64
	AtomicFAA       int64
	AtomicLoads     int64
	AtomicStores    int64
}

// Name reports the thread's name.
func (t *Thread) Name() string { return t.name }

// Slot reports the thread's creation index, which also determines its
// home processor (slot mod P).
func (t *Thread) Slot() int { return t.slot }

// Clock reports the thread's current virtual time. After Engine.Run it
// is the thread's completion time.
func (t *Thread) Clock() int64 { return t.clock }

// advance moves the thread's clock forward by cycles, dilated by the
// processor-sharing factor when more threads are runnable than there are
// processors, and charges migration when the processor assignment
// changed since the last advance.
func (t *Thread) advance(cycles int64) {
	e := t.e
	if r := int64(e.running); r > int64(e.cfg.Processors) {
		cycles = cycles * r / int64(e.cfg.Processors)
	}
	t.clock += cycles
	cpu := t.cpu()
	if cpu != t.lastCPU {
		t.lastCPU = cpu
		t.Migrations++
		t.clock += e.cost.Migration
		e.trace(t, EvMigrate, "")
	}
	if t.clock > e.maxClock {
		e.maxClock = t.clock
	}
}

// cpu computes the processor the thread currently runs on. With at most
// P live threads every thread stays on its home processor; with more,
// threads rotate across processors every MigrationPeriod of virtual
// time, modelling the OS spreading an oversubscribed run queue.
func (t *Thread) cpu() int {
	e := t.e
	if e.live <= e.cfg.Processors {
		return t.home
	}
	epoch := t.clock / e.cfg.MigrationPeriod
	return int((int64(t.slot) + epoch) % int64(e.cfg.Processors))
}

// yield suspends the thread's worker coroutine, returning control to
// the scheduling loop in Engine.Run, which resumes it when the scheduler
// picks the thread again. The caller has already queued or blocked t.
// A false result means Run is tearing the simulation down (a panic in
// another thread, or a deadlock): the thread then unwinds with a
// threadUnwind panic, which exec swallows.
func (t *Thread) yield() {
	if !t.w.yield(struct{}{}) {
		panic(threadUnwind{})
	}
}

// threadUnwind is the sentinel panic that unwinds a suspended thread
// whose worker is being stopped.
type threadUnwind struct{}

// maybeYield yields only when the thread's lease has expired — and even
// then only when the scheduler would hand the processor to a different
// thread. While a simulated thread runs, the scheduling loop in Run is
// suspended, so the thread has exclusive access to the ready heap: if
// it is still ahead of every queued thread it renews its own lease and
// keeps running, saving the two coroutine switches of a park/repick
// round-trip. The decision is exactly the one Run would make after the
// yield, so virtual-time results are unchanged.
func (t *Thread) maybeYield() {
	if t.clock < t.lease {
		return
	}
	t.yieldCheck()
}

// yieldCheck is the slow path of maybeYield, split out so the lease
// check above inlines into every Work/Read/Write charge.
func (t *Thread) yieldCheck() {
	e := t.e
	if !e.cfg.linearScan {
		if n := e.ready.peek(); n == nil || schedBefore(t, n) {
			if !e.cfg.Exact {
				if n == nil {
					t.lease = math.MaxInt64
				} else {
					t.lease = n.clock
				}
			}
			return
		}
	}
	e.trace(t, EvPreempt, "")
	e.enqueue(t)
	t.yield()
}

// exec runs the thread function on the current worker coroutine. When
// the function returns or panics the thread retires and its worker goes
// back to the free list; a panic is kept for Engine.Run to re-raise. A
// threadUnwind is swallowed without touching engine state, so the
// panic that ended the run stays the one Run reports.
func (t *Thread) exec() {
	defer func() {
		e := t.e
		r := recover()
		if _, unwind := r.(threadUnwind); unwind {
			return
		}
		if r != nil {
			e.threadPanic = r
			e.threadPanicStack = debug.Stack()
		}
		t.state = stateDone
		e.live--
		e.running--
		e.trace(t, EvThreadDone, t.name)
		e.idleWorkers = append(e.idleWorkers, t.w)
		t.w = nil
	}()
	ctx := &Ctx{t: t}
	t.fn(ctx)
}

// Ctx is the execution context handed to a thread function. It is valid
// only inside that function and must not be shared with other threads.
type Ctx struct {
	t *Thread
}

// Engine returns the engine the thread runs on.
func (c *Ctx) Engine() *Engine { return c.t.e }

// Thread returns the underlying thread (for reading statistics).
func (c *Ctx) Thread() *Thread { return c.t }

// Now reports the thread's current virtual time.
func (c *Ctx) Now() int64 { return c.t.clock }

// CPU reports the processor the thread currently runs on.
func (c *Ctx) CPU() int { return c.t.cpu() }

// ThreadID reports the thread's slot index.
func (c *Ctx) ThreadID() int { return c.t.slot }

// Advance charges the thread cycles of pure computation.
func (c *Ctx) Advance(cycles int64) {
	if cycles < 0 {
		panic(fmt.Sprintf("sim: negative advance %d", cycles))
	}
	c.t.advance(cycles)
	c.t.maybeYield()
}

// Work charges n generic operations (n times CostModel.Op).
func (c *Ctx) Work(n int64) {
	c.Advance(n * c.t.e.cost.Op)
}

// Read charges a load of size bytes at addr through the cache model.
func (c *Ctx) Read(addr uint64, size int64) {
	c.t.e.cache.access(c.t, c.t.cpu(), addr, size, false)
	c.t.maybeYield()
}

// Write charges a store of size bytes at addr through the cache model.
func (c *Ctx) Write(addr uint64, size int64) {
	c.t.e.cache.access(c.t, c.t.cpu(), addr, size, true)
	c.t.maybeYield()
}

// Sbrk charges the cost of extending the address space.
func (c *Ctx) Sbrk() {
	c.t.advance(c.t.e.cost.Sbrk)
	c.t.maybeYield()
}

// Go spawns a new thread from inside the simulation. The child starts
// at the parent's current time plus the spawn cost. No host goroutine
// is created here: the child is bound to a pooled worker at its first
// dispatch, so spawning is just a heap push on the host.
func (c *Ctx) Go(name string, fn func(*Ctx)) *Thread {
	t := c.t
	t.advance(t.e.cost.Spawn)
	nt := t.e.newThread(name, fn)
	t.e.live++
	t.e.wake(t, nt, 0)
	t.e.trace(t, EvSpawn, name)
	t.e.trace(nt, EvThreadStart, name)
	t.maybeYield()
	return nt
}
