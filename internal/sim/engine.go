package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
)

// Config parameterizes the simulated machine. Every other parameter is
// fixed: the engine prices events with DefaultCost, models 64-byte
// cache lines and rotates the threads of an oversubscribed machine
// across processors every migrationPeriod cycles.
type Config struct {
	// Processors is the number of CPUs; zero means 8, the paper's
	// machines.
	Processors int
	// Tracer, when non-nil, receives every simulation event (thread
	// lifecycle, lock traffic, allocator and pool activity, cache
	// coherence, channel/waitgroup operations, migrations, and the
	// events the VM and runtimes emit through Ctx.Trace/Emit).
	Tracer Tracer
}

// migrationPeriod is the virtual-time interval after which threads
// rotate between processors when the machine is oversubscribed.
const migrationPeriod = 200_000

// Engine is a deterministic discrete-event SMP simulator. Create one
// with New, add threads with Go, then call Run.
type Engine struct {
	procs int
	cost  CostModel
	cache *Cache

	// live holds the threads not yet done, in slot order until the
	// first one retires (retire moves the last into the gap). It is the
	// engine's only list of threads: a retired thread's counters are
	// folded into retired, and the *Thread that Go returned belongs to
	// whoever kept it, so host memory grows with the threads alive, not
	// with the threads ever spawned.
	live []*Thread
	// slots counts the threads ever created: the next thread's slot.
	slots int32
	// retired sums the lock, migration and atomic counters of every
	// retired thread (see Stats.addThread).
	retired Stats

	running int // threads ready or running (demanding a processor)

	// ready holds the runnable threads ordered by (clock, slot); the
	// scheduler pops its root instead of scanning every thread.
	ready readyHeap
	// handoff is the thread a preempted thread swapped out of the heap
	// root (see yieldCheck): the scheduling loop starts it next without
	// a pop.
	handoff *Thread
	// pick chooses the next thread and its lease for the scheduling
	// loop: pickHeap, which the scheduler tests replace with a linear
	// scan.
	pick func(*Engine) (*Thread, int64)
	// unwind is the stacked thread the scheduling loop picked: each
	// level below the loop yields down until the target's own level
	// returns into it (see schedule).
	unwind *Thread
	// segments counts open run-ahead segments (see Ctx.Compute).
	segments int
	// switches counts the coroutine switches of the run: every resume
	// of a worker and every yield back down.
	switches int64

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
	e := &Engine{
		procs:  cfg.Processors,
		cost:   DefaultCost(),
		tracer: cfg.Tracer,
		pick:   (*Engine).pickHeap,
	}
	if e.procs <= 0 {
		e.procs = 8
	}
	e.cache = newCache(&e.cost)
	return e
}

// Processors reports the number of simulated CPUs.
func (e *Engine) Processors() int { return e.procs }

// Cache returns the engine's cache model (for statistics).
func (e *Engine) Cache() *Cache { return e.cache }

// Mutexes returns every mutex created on the engine.
func (e *Engine) Mutexes() []*Mutex { return e.mutexes }

func (e *Engine) newThread(name string, fn func(*Ctx)) *Thread {
	if e.slots == math.MaxInt32 {
		panic("sim: more than 2^31-1 threads")
	}
	t := &Thread{
		e:       e,
		slot:    e.slots,
		idx:     int32(len(e.live)),
		name:    name,
		fn:      fn,
		state:   stateNew,
		heapIdx: -1,
	}
	e.slots++
	t.home = int32(int(t.slot) % e.procs)
	t.lastCPU = t.home
	e.live = append(e.live, t)
	return t
}

// retire folds a finished thread's counters into the engine's total and
// drops it from the live set, the engine's last reference to it. The
// thread function goes too; the handle keeps its name, clock and
// counters for whoever holds it.
func (e *Engine) retire(t *Thread) {
	e.retired.addThread(t)
	last := len(e.live) - 1
	e.live[t.idx] = e.live[last]
	e.live[t.idx].idx = t.idx
	e.live[last] = nil
	e.live = e.live[:last]
	t.fn = nil
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
// Run is the bottom level of the scheduling loop (see schedule). Every
// thread's worker hands control back down to it when the run ends,
// deadlocks or a thread panics; on every exit, normal or not, the
// workers are stopped.
func (e *Engine) Run() int64 {
	e.start()
	defer e.stopWorkers()
	e.schedule(nil)
	return e.Makespan()
}

// schedule is the scheduling loop. Run calls it with self nil, and a
// thread that stops (preempted, parked in Sync, blocked or waiting)
// calls it from its own worker through Thread.yield, so a simulated
// context switch can cost one coroutine switch instead of two through
// a central loop. Each round picks the next thread (the handoff of a
// preempted thread, else the ready heap's root) and grants its lease.
// Then:
//
//   - the stopping thread itself: return, and it goes on without a
//     switch;
//   - a thread off the stack: resume its worker with next, so self
//     stays stacked inside that call until a worker yields back down;
//   - a thread stacked lower down: set it as the unwind target and
//     yield down; each level passes control down until the target's
//     own level returns into it.
//
// A thread panic, a deadlock (nothing ready) and a finished thread
// yield down to the level below, so Run, at the bottom, still re-raises
// panics, reports deadlocks and stops every worker. A level that has
// yielded down returns only once a later round has granted self and
// resumed its worker. Every resume is paired with at most one yield
// back, so a run switches at most twice per pick, as the central loop
// did, and the picks and grants are the central loop's, in its order.
func (e *Engine) schedule(self *Thread) {
	for e.threadPanic == nil && e.unwind == nil {
		if self == nil && len(e.live) == 0 {
			return
		}
		t, lease := e.pick(e)
		if t == nil {
			break
		}
		e.grant(t, lease)
		if t == self {
			return
		}
		if t.w.stacked {
			e.unwind = t
			break
		}
		e.resume(self, t)
	}
	switch {
	case self == nil && e.threadPanic != nil:
		e.rethrowThreadPanic()
	case self == nil:
		panic(e.deadlockReport())
	case e.unwind == self:
		e.unwind = nil
	default:
		e.down(self)
	}
}

// pickHeap is the scheduler's pick: the handoff a preempted thread
// chose, else the ready heap's root, with the clock of the new root as
// the lease. It returns nil when no thread is ready.
func (e *Engine) pickHeap() (*Thread, int64) {
	t := e.handoff
	if t != nil {
		e.handoff = nil
	} else if t = e.ready.pop(); t == nil {
		return nil, 0
	}
	return t, e.heapLease()
}

// start queues every thread registered with Go, in slot order: none
// has retired yet. It panics when the engine has already run.
func (e *Engine) start() {
	if e.started {
		panic("sim: Run called twice")
	}
	e.started = true
	for _, t := range e.live {
		e.running++
		e.enqueue(t)
		e.trace(t, EvThreadStart, t.name)
	}
}

// heapLease is the lease of a thread just taken off the ready heap: the
// clock of the heap's new root, or unbounded when the heap is empty.
func (e *Engine) heapLease() int64 {
	if p := e.ready.peek(); p != nil {
		return p.clock
	}
	return math.MaxInt64
}

// grant marks t running with a lease up to the runner-up's clock, and
// binds t to a worker at its first dispatch.
func (e *Engine) grant(t *Thread, lease int64) {
	t.state = stateRunning
	t.lease = lease
	if t.w == nil {
		e.bindWorker(t)
	}
}

// rethrowThreadPanic re-raises a captured thread panic on the caller's
// goroutine. Go runtime errors (nil derefs, index range) would
// otherwise lose the stack of the simulated thread in the hop, so
// attach it; typed panic values pass through untouched so callers can
// recover their own sentinels.
func (e *Engine) rethrowThreadPanic() {
	if _, isRuntime := e.threadPanic.(runtime.Error); isRuntime {
		panic(fmt.Sprintf("%v\n\n[simulated-thread stack]\n%s", e.threadPanic, e.threadPanicStack))
	}
	panic(e.threadPanic)
}

// Makespan reports the largest thread completion time seen so far. It
// is an O(1) read of the running max maintained by advance and wake.
func (e *Engine) Makespan() int64 {
	return e.maxClock
}

// deadlockReport names every unfinished thread, in slot order, and
// every held mutex.
func (e *Engine) deadlockReport() string {
	s := "sim: deadlock — no runnable thread\n"
	ts := slices.Clone(e.live)
	slices.SortFunc(ts, func(a, b *Thread) int { return int(a.slot - b.slot) })
	for _, t := range ts {
		s += fmt.Sprintf("  thread %d %q state=%d clock=%d\n", t.slot, t.name, t.state, t.clock)
	}
	for _, m := range e.mutexes {
		if m.owner != nil {
			s += fmt.Sprintf("  mutex %q held by %d with %d waiters\n", m.name, m.owner.slot, m.queued())
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

// Stats returns aggregate statistics across all threads, retired and
// unfinished alike, so a call during the run counts every thread too.
func (e *Engine) Stats() Stats {
	st := e.retired
	st.Makespan = e.Makespan()
	st.CacheHits = e.cache.Hits
	st.CacheMisses = e.cache.Misses
	st.CacheInvalidations = e.cache.Invalidations
	st.CacheRFOs = e.cache.RFOs
	for _, t := range e.live {
		st.addThread(t)
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

// addThread folds t's lock, migration and atomic counters into st. Its
// cache counters are not folded: the cache model keeps their totals.
func (st *Stats) addThread(t *Thread) {
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
