package sim

import (
	"fmt"
	"math"
	"runtime"
)

// Config parameterizes the simulated machine.
type Config struct {
	// Processors is the number of CPUs (the paper's machines had 8).
	Processors int
	// MigrationPeriod is the virtual-time interval after which threads
	// rotate between processors when the machine is oversubscribed.
	MigrationPeriod int64
	// LineSize is the cache-line size in bytes (power of two).
	LineSize int64
	// Cost prices the primitive events; zero value means DefaultCost.
	Cost CostModel
	// Exact disables the lease optimization so that every engine call
	// yields to the scheduler. Used by tests to validate that leases do
	// not change results beyond cache-batching noise.
	Exact bool
	// Tracer, when non-nil, receives simulation events (thread
	// lifecycle, lock traffic, allocator and pool activity, cache
	// coherence, channel/waitgroup operations, migrations).
	Tracer Tracer
	// TraceMask selects which event kinds reach the tracer; zero means
	// all kinds. Filtering happens before the Event is built, so a
	// recorder interested only in lock traffic pays nothing for the
	// (much noisier) cache events.
	TraceMask Mask
	// linearScan selects the pre-heap reference scheduler: a linear
	// scan over all threads per event and no lease self-renewal. It
	// exists so tests can verify the heap scheduler is behaviorally
	// identical; it is unexported because nothing else should use it.
	linearScan bool
}

func (c Config) withDefaults() Config {
	if c.Processors <= 0 {
		c.Processors = 8
	}
	if c.MigrationPeriod <= 0 {
		c.MigrationPeriod = 200_000
	}
	if c.LineSize <= 0 {
		c.LineSize = 64
	}
	if c.Cost == (CostModel{}) {
		c.Cost = DefaultCost()
	}
	return c
}

// Engine is a deterministic discrete-event SMP simulator. Create one
// with New, add threads with Go, then call Run.
type Engine struct {
	cfg     Config
	cost    CostModel
	cache   *Cache
	threads []*Thread

	live    int // threads not yet done
	running int // threads ready or running (demanding a processor)

	// ready holds the runnable threads ordered by (clock, slot); the
	// scheduler pops its root instead of scanning every thread.
	ready readyHeap

	// maxClock is the largest thread clock ever reached, maintained by
	// advance and wake so Makespan is O(1) instead of an O(threads)
	// scan. Clocks never decrease, so the running max over every
	// increment equals the scan's answer at all times.
	maxClock int64

	// workers holds every worker coroutine ever started and idleWorkers
	// the free list among them. Run and the workers never execute at the
	// same time (see worker), so no lock is needed.
	workers        []*worker
	idleWorkers    []*worker
	workersSpawned int64
	workersReused  int64

	started          bool
	threadPanic      any
	threadPanicStack []byte
	tracer           Tracer
	traceMask        Mask

	// Mutexes registers every mutex created on this engine so that Run
	// can report per-lock statistics and deadlocks can be diagnosed.
	mutexes []*Mutex
	// channels and waitgroups register every synchronization object so
	// Stats can fold their counters into the engine aggregate.
	channels   []*Channel
	waitgroups []*WaitGroup

	// atomics holds the value of every simulated atomic cell, keyed by
	// byte address (see atomic.go). Lazily allocated; only the running
	// thread touches it, so no host locking is needed.
	atomics map[uint64]int64
}

// New returns an engine for the given configuration.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	mask := cfg.TraceMask
	if mask == 0 {
		mask = AllEvents
	}
	e := &Engine{
		cfg:       cfg,
		cost:      cfg.Cost,
		tracer:    cfg.Tracer,
		traceMask: mask,
	}
	e.cache = newCache(cfg.Processors, cfg.LineSize, &e.cost)
	return e
}

// Processors reports the number of simulated CPUs.
func (e *Engine) Processors() int { return e.cfg.Processors }

// Cost returns the engine's cost model.
func (e *Engine) Cost() CostModel { return e.cost }

// Cache returns the engine's cache model (for statistics).
func (e *Engine) Cache() *Cache { return e.cache }

// Threads returns all threads ever created on the engine.
func (e *Engine) Threads() []*Thread { return e.threads }

// Mutexes returns every mutex created on the engine.
func (e *Engine) Mutexes() []*Mutex { return e.mutexes }

func (e *Engine) newThread(name string, fn func(*Ctx)) *Thread {
	t := &Thread{
		e:       e,
		slot:    len(e.threads),
		name:    name,
		fn:      fn,
		state:   stateNew,
		lastCPU: -1,
		heapIdx: -1,
	}
	t.home = t.slot % e.cfg.Processors
	t.lastCPU = t.home
	e.threads = append(e.threads, t)
	return t
}

// Go registers a thread to start at time zero. It must be called before
// Run; threads spawned during the run use Ctx.Go.
func (e *Engine) Go(name string, fn func(*Ctx)) *Thread {
	if e.started {
		panic("sim: Engine.Go after Run; use Ctx.Go from inside the simulation")
	}
	t := e.newThread(name, fn)
	t.state = stateReady
	return t
}

// Run executes the simulation until every thread completes and returns
// the makespan (the largest completion time). It panics on deadlock,
// printing the lock graph, and re-raises a thread's panic.
//
// Run is a central scheduling loop: it picks the next thread, grants
// its lease and resumes the thread's worker coroutine, which runs until
// the thread yields, blocks or finishes and then switches straight back
// here. Each switch is a direct coroutine transfer, not a channel
// operation, so the Go scheduler never runs between two simulated
// events. On every exit, normal or not, the workers are stopped.
func (e *Engine) Run() int64 {
	if e.started {
		panic("sim: Run called twice")
	}
	e.started = true
	for _, t := range e.threads {
		if t.state == stateReady {
			e.live++
			e.running++
			e.enqueue(t)
			e.trace(t, EvThreadStart, t.name)
		}
	}
	defer e.stopWorkers()
	for e.live > 0 {
		t := e.dispatch()
		if t == nil {
			panic(e.deadlockReport())
		}
		t.w.next()
		e.rethrowThreadPanic()
	}
	return e.Makespan()
}

// dispatch picks the next thread to run, marks it running and grants
// its lease: up to the runner-up's clock, unless Exact forces a yield
// on every event. It binds the thread to a worker at its first
// dispatch, and returns nil when no thread is runnable.
func (e *Engine) dispatch() *Thread {
	var t *Thread
	lease := int64(math.MaxInt64)
	if e.cfg.linearScan {
		t, lease = e.pickMin()
	} else if t = e.ready.pop(); t != nil {
		if p := e.ready.peek(); p != nil {
			lease = p.clock
		}
	}
	if t == nil {
		return nil
	}
	t.state = stateRunning
	if e.cfg.Exact {
		lease = math.MinInt64 // always yield
	}
	t.lease = lease
	if t.w == nil {
		e.bindWorker(t)
	}
	return t
}

// rethrowThreadPanic re-raises a captured thread panic on the caller's
// goroutine. Go runtime errors (nil derefs, index range) would
// otherwise lose the stack of the simulated thread in the hop, so
// attach it; typed panic values pass through untouched so callers can
// recover their own sentinels.
func (e *Engine) rethrowThreadPanic() {
	if e.threadPanic == nil {
		return
	}
	if _, isRuntime := e.threadPanic.(runtime.Error); isRuntime {
		panic(fmt.Sprintf("%v\n\n[simulated-thread stack]\n%s", e.threadPanic, e.threadPanicStack))
	}
	panic(e.threadPanic)
}

// pickMin selects the ready thread with the smallest clock (ties broken
// by slot) and the clock of the runner-up, which bounds the winner's
// lease. It is the linear-scan reference scheduler, kept only for the
// equivalence tests that pin the heap scheduler to it; it differs from
// the heap only in how the next thread is picked and in having no lease
// self-renewal (see yieldCheck).
func (e *Engine) pickMin() (*Thread, int64) {
	var best *Thread
	second := int64(math.MaxInt64)
	for _, t := range e.threads {
		if t.state != stateReady {
			continue
		}
		if best == nil || t.clock < best.clock {
			if best != nil {
				second = best.clock
			}
			best = t
		} else if t.clock < second {
			second = t.clock
		}
	}
	return best, second
}

// Makespan reports the largest thread completion time seen so far. It
// is an O(1) read of the running max maintained by advance and wake;
// scanMakespan is the O(threads) reference it is pinned to by test.
func (e *Engine) Makespan() int64 {
	return e.maxClock
}

// scanMakespan recomputes the makespan by scanning every thread. Kept
// as the reference implementation for the Makespan regression test.
func (e *Engine) scanMakespan() int64 {
	var m int64
	for _, t := range e.threads {
		if t.clock > m {
			m = t.clock
		}
	}
	return m
}

func (e *Engine) deadlockReport() string {
	s := "sim: deadlock — no runnable thread\n"
	for _, t := range e.threads {
		s += fmt.Sprintf("  thread %d %q state=%d clock=%d\n", t.slot, t.name, t.state, t.clock)
	}
	for _, m := range e.mutexes {
		if m.owner != nil {
			s += fmt.Sprintf("  mutex %q held by %d with %d waiters\n", m.name, m.owner.slot, len(m.waiters))
		}
	}
	return s
}

// Stats aggregates engine-wide counters after (or during) a run.
type Stats struct {
	Makespan      int64
	LockAcquires  int64
	LockContended int64
	LockWaitTime  int64
	CacheHits     int64
	CacheMisses   int64
	// CacheInvalidations counts the subset of misses on lines the
	// processor had cached but another processor's write invalidated —
	// the coherence traffic, as opposed to cold misses.
	CacheInvalidations int64
	CacheRFOs          int64
	Migrations         int64
	// Channel aggregates across every channel created on the engine.
	ChanSends        int64
	ChanRecvs        int64
	ChanBlockedSends int64
	ChanBlockedRecvs int64
	// WaitGroup aggregates across every waitgroup on the engine.
	WaitGroupWaits int64
	WaitGroupDones int64
	// Atomic-operation aggregates across every thread: CAS attempts
	// (AtomicCASFailed is the subset whose compare lost), fetch-and-adds
	// and plain atomic loads/stores (see atomic.go).
	AtomicCAS       int64
	AtomicCASFailed int64
	AtomicFAA       int64
	AtomicLoads     int64
	AtomicStores    int64
}

// Stats returns aggregate statistics across all threads.
func (e *Engine) Stats() Stats {
	st := Stats{
		Makespan:           e.Makespan(),
		CacheHits:          e.cache.Hits,
		CacheMisses:        e.cache.Misses,
		CacheInvalidations: e.cache.Invalidations,
		CacheRFOs:          e.cache.RFOs,
	}
	for _, t := range e.threads {
		st.LockAcquires += t.LockAcquires
		st.LockContended += t.LockContended
		st.LockWaitTime += t.LockWaitTime
		st.Migrations += t.Migrations
		st.AtomicCAS += t.AtomicCAS
		st.AtomicCASFailed += t.AtomicCASFailed
		st.AtomicFAA += t.AtomicFAA
		st.AtomicLoads += t.AtomicLoads
		st.AtomicStores += t.AtomicStores
	}
	for _, ch := range e.channels {
		st.ChanSends += ch.Sends
		st.ChanRecvs += ch.Recvs
		st.ChanBlockedSends += ch.BlockedSends
		st.ChanBlockedRecvs += ch.BlockedRecvs
	}
	for _, wg := range e.waitgroups {
		st.WaitGroupWaits += wg.Waits
		st.WaitGroupDones += wg.Dones
	}
	return st
}
