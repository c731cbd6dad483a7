package sim

import (
	"fmt"
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

// Thread is one simulated thread of execution. The engine owns every
// Thread record: all fields are maintained by the engine, and workload
// code interacts with a thread only through the *Ctx passed to its
// function. A record is valid only while its thread runs, like the
// *Ctx: once the thread finishes, the engine puts the record back on
// its free list and the next spawn reuses it, unless a mutex still
// names the thread as its owner (see held).
type Thread struct {
	e    *Engine
	slot int32
	// idx is the thread's position in the engine's live set while it
	// is unfinished.
	idx   int32
	name  string
	fn    func(*Ctx)
	state threadState
	// ahead is set while the thread has an open run-ahead segment (see
	// Compute).
	ahead bool

	// lastCPU is the processor the thread most recently ran on, used to
	// charge migration costs.
	lastCPU int32
	// home is slot mod P, precomputed: the processor the thread owns
	// whenever the machine is not oversubscribed. Caching it keeps an
	// integer division out of cpu(), which runs on every cache access
	// and work charge.
	home int32
	// heapIdx is the thread's position in the engine's ready heap, or
	// -1 while it is not queued.
	heapIdx int32

	// clock is the thread's virtual time: the moment its next action
	// begins.
	clock int64
	// lease is the time up to which the thread may run without yielding
	// back to the scheduler (see package comment).
	lease int64
	// segStart is the clock at which the open run-ahead segment began.
	segStart int64
	// debt counts private work units a rollback took back from a
	// segment; the thread's next Sync charges them one at a time.
	debt int64

	// held counts the mutexes the thread owns. A thread that finishes
	// while it still owns one keeps its record out of the free list, so
	// the mutex's owner, its Unlock check and the deadlock report go on
	// naming the finished thread, not a later spawn that reused it.
	held int32

	// w is the pooled worker coroutine currently executing this thread.
	// It is bound at the thread's first dispatch and returned to the
	// engine's free list when the thread retires.
	w *worker

	// Per-thread statistics.
	LockAcquires  int64 // total successful mutex acquisitions
	LockContended int64 // acquisitions that had to wait
	LockWaitTime  int64 // virtual cycles spent waiting for mutexes
	Migrations    int64
	// Atomic-operation counters: CAS attempts (AtomicCASFailed is the
	// subset whose compare lost), fetch-and-adds, and plain atomic
	// loads/stores.
	AtomicCAS       int64
	AtomicCASFailed int64
	AtomicFAA       int64
	AtomicLoads     int64
	AtomicStores    int64
}

// advance moves the thread's clock forward by cycles, dilated by the
// processor-sharing factor when more threads are runnable than there are
// processors, and charges migration when the processor assignment
// changed since the last advance.
func (t *Thread) advance(cycles int64) {
	e := t.e
	if r := int64(e.running); r > int64(e.procs) {
		cycles = cycles * r / int64(e.procs)
	}
	t.clock += cycles
	cpu := t.cpu()
	if cpu != int(t.lastCPU) {
		t.lastCPU = int32(cpu)
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
// threads rotate across processors every migrationPeriod of virtual
// time, modelling the OS spreading an oversubscribed run queue.
func (t *Thread) cpu() int {
	e := t.e
	if len(e.live) <= e.procs {
		return int(t.home)
	}
	epoch := t.clock / migrationPeriod
	return int((int64(t.slot) + epoch) % int64(e.procs))
}

// yield stops the thread, which the caller has already queued or
// blocked, and runs the scheduling loop on its worker (see
// Engine.schedule). It returns once a scheduling loop has picked the
// thread again; when that loop is the thread's own, the thread goes on
// without a coroutine switch.
func (t *Thread) yield() {
	t.e.schedule(t)
}

// threadUnwind is the sentinel panic that unwinds a suspended thread
// whose worker is being stopped.
type threadUnwind struct{}

// maybeYield yields only when the thread's lease has expired — and even
// then only when the scheduler would hand the processor to a different
// thread. While a simulated thread runs, no scheduling loop is, so the
// thread has exclusive access to the ready heap: if it is still ahead
// of every queued thread it renews its own lease and keeps running,
// without entering the scheduling loop. The decision is exactly the one
// the loop would make after the yield, so virtual-time results are
// unchanged.
func (t *Thread) maybeYield() {
	if t.clock < t.lease {
		return
	}
	t.yieldCheck()
}

// yieldCheck is the slow path of maybeYield, split out so the lease
// check above inlines into every Work/Read/Write charge. When another
// thread must run, t swaps itself into the heap root in its place and
// names it as the next thread for the scheduling loop, which is the
// same choice a push and a pop would make, at one sift-down.
func (t *Thread) yieldCheck() {
	e := t.e
	if n := e.ready.peek(); n == nil || schedBefore(t, n) {
		t.lease = e.heapLease()
		return
	}
	e.trace(t, EvPreempt, "")
	t.state = stateReady
	e.handoff = e.ready.replaceTop(t)
	t.yield()
}

// exec runs the thread function with its worker's context c. When
// the function returns or panics the thread retires: its worker goes
// back to the engine's free list and so does its record, unless the
// thread still owns a mutex; a panic is kept for Engine.Run to
// re-raise. A threadUnwind is swallowed without touching engine state,
// so the panic that ended the run stays the one Run reports.
func (t *Thread) exec(c *Ctx) {
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
		e.retire(t)
		e.running--
		e.trace(t, EvThreadDone, t.name)
		e.idleWorkers = append(e.idleWorkers, t.w)
		t.w = nil
		if t.held == 0 {
			e.freeThreads = append(e.freeThreads, t)
		}
	}()
	t.fn(c)
	if t.ahead {
		t.sync()
	}
}

// Ctx is the execution context handed to a thread function. It belongs
// to the pooled worker that runs the thread, not to the thread: it is
// valid only while that function runs, and once the thread finishes
// the same *Ctx serves the next thread bound to the worker. It must not
// be kept past the function's return or shared with other threads.
type Ctx struct {
	t *Thread
}

// Engine returns the engine the thread runs on.
func (c *Ctx) Engine() *Engine { return c.t.e }

// Now reports the thread's current virtual time.
func (c *Ctx) Now() int64 { return c.t.clock }

// CPU reports the processor the thread currently runs on.
func (c *Ctx) CPU() int { return c.t.cpu() }

// ThreadID reports the thread's slot index.
func (c *Ctx) ThreadID() int { return int(c.t.slot) }

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

// Compute charges n units of private work: work that reads and writes
// only the calling thread's own state. It is exactly n Work(1) calls,
// except that while the engine is untraced and not oversubscribed, the
// thread is on its home processor and no queued thread sorts before it,
// it opens (or extends) a run-ahead segment instead: the clock moves by
// n·Op with no lease check and no yield, however far that takes the
// thread past the others. The caller must call Sync before its next engine operation;
// the engine syncs a thread whose function returns.
//
// Run-ahead is exact because, under those conditions, the price of a
// private unit depends on nothing another thread can change except a
// spawn that makes the live count exceed P, and Go rolls open segments
// back at that crossing (see rollBack).
func (c *Ctx) Compute(n int64) {
	t := c.t
	if t.ahead {
		t.clock += n * t.e.cost.Op
		return
	}
	t.compute(n)
}

// compute is the slow path of Compute, split out so the segment-open
// check above inlines into the caller. A thread owes debt only while it
// is parked in Sync, so it never owes any here.
//
// The per-unit reference checks the lease after each unit, not before
// it, so a unit that follows an operation with no check of its own (a
// WaitGroup Done that woke a lower-slot thread at the same clock) runs
// before that thread although it sorts after it. rollBack places units
// by key alone, so such a unit must not start a segment: compute
// charges it per unit, which yields to the woken thread.
func (t *Thread) compute(n int64) {
	e := t.e
	if p := e.ready.peek(); (p == nil || schedBefore(t, p)) && t.open() {
		t.clock += n * e.cost.Op
		return
	}
	for range n {
		t.advance(e.cost.Op)
		t.maybeYield()
	}
}

// open starts a run-ahead segment at t's clock when run-ahead is exact
// for it: the engine is untraced and not oversubscribed and t is on its
// home processor. It reports whether it did.
func (t *Thread) open() bool {
	e := t.e
	if e.tracer != nil || len(e.live) > e.procs || t.lastCPU != t.home {
		return false
	}
	t.ahead = true
	t.segStart = t.clock
	e.segments++
	return true
}

// ReadAhead is Read for a load whose value the caller has already
// taken: under the memory-model rule that a shared access takes effect
// at its start, nothing another thread does while the load is charged
// can change what it read. So when the charge expires the thread's
// lease, instead of yielding to a thread that sorts before it, it
// opens a run-ahead segment where Compute would, and the caller must
// Sync before its next engine operation. Within the lease, and
// wherever Compute would not run ahead, it is exactly Read.
func (c *Ctx) ReadAhead(addr uint64, size int64) {
	t := c.t
	t.e.cache.access(t, t.cpu(), addr, size, false)
	if t.clock >= t.lease && !t.open() {
		t.yieldCheck()
	}
}

// WriteAhead is ReadAhead for a store the caller has already made.
func (c *Ctx) WriteAhead(addr uint64, size int64) {
	t := c.t
	t.e.cache.access(t, t.cpu(), addr, size, true)
	if t.clock >= t.lease && !t.open() {
		t.yieldCheck()
	}
}

// Sync ends the calling thread's run-ahead segment, if it has one: it
// charges any debt a rollback left one unit at a time, yields until the
// thread is again the scheduling minimum, so every other thread's
// action before that moment in virtual time has happened, and commits
// the segment. Without an open segment it does nothing.
func (c *Ctx) Sync() {
	if c.t.ahead {
		c.t.sync()
	}
}

func (t *Thread) sync() {
	e := t.e
	for {
		for t.debt > 0 {
			t.debt--
			t.advance(e.cost.Op)
			t.maybeYield()
		}
		if n := e.ready.peek(); n == nil || schedBefore(t, n) {
			break
		}
		t.state = stateReady
		e.handoff = e.ready.replaceTop(t)
		t.yield()
	}
	if t.ahead {
		t.commit()
	}
}

// commit closes t's segment at t's current clock.
func (t *Thread) commit() {
	t.ahead = false
	t.e.segments--
	if t.clock > t.e.maxClock {
		t.e.maxClock = t.clock
	}
}

// rollBack is called when spawner s, whose action began at clock at,
// takes the live count past P. Every open segment belongs to a queued
// thread parked in Sync, and its units were priced as if the machine
// were not oversubscribed. Each such thread keeps the units that began
// before the spawn's (clock, slot) key, which run before the spawn in
// virtual-time order too; its clock returns to the end of those units
// and the rest become debt, which its Sync charges under the new
// regime. s's lease shrinks so it cannot pass a rolled-back clock.
func (e *Engine) rollBack(s *Thread, at int64) {
	op := e.cost.Op
	for _, t := range e.ready.ts {
		if !t.ahead {
			continue
		}
		n := (t.clock - t.segStart) / op
		d := at - t.segStart
		keep := max(0, (d+op-1)/op)
		if d >= 0 && d%op == 0 && t.slot < s.slot {
			keep++
		}
		keep = min(keep, n)
		t.clock = t.segStart + keep*op
		t.debt += n - keep
		t.commit()
		if t.clock < s.lease {
			s.lease = t.clock
		}
	}
	e.ready.init()
}

// Go spawns a new thread from inside the simulation. The child starts
// at the parent's current time plus the spawn cost. No host goroutine
// is created here: the child is bound to a pooled worker at its first
// dispatch, and its record is one a finished thread left on the
// engine's free list whenever there is one, so spawn churn allocates
// nothing on the host.
func (c *Ctx) Go(name string, fn func(*Ctx)) {
	t := c.t
	at := t.clock
	t.advance(t.e.cost.Spawn)
	nt := t.e.newThread(name, fn)
	if t.e.segments > 0 && len(t.e.live) > t.e.procs {
		t.e.rollBack(t, at)
	}
	t.e.wake(t, nt, 0)
	t.e.trace(t, EvSpawn, name)
	t.e.trace(nt, EvThreadStart, name)
	t.maybeYield()
}
