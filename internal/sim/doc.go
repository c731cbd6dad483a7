// Package sim implements a deterministic discrete-event simulator of a
// small shared-memory multiprocessor (SMP).
//
// The paper this repository reproduces (Häggander, Lidén & Lundberg,
// "A Method for Automatic Optimization of Dynamic Memory Management in
// C++", ICPP 2001) ran its experiments on 8-processor Sun Enterprise
// machines. The phenomena it measures — lock serialization, lock
// contention, arena/pool spreading, free-list path length and cache-line
// invalidation (false sharing) — are algorithmic, so they can be
// reproduced faithfully in virtual time. Package sim provides:
//
//   - an Engine with P virtual processors and any number of threads,
//   - virtual-time Mutexes with FIFO handoff and contention statistics,
//   - a cache model with per-processor line ownership and MESI-style
//     invalidation, which makes false sharing visible as a cost,
//   - a processor-sharing scheduler: when more threads are runnable than
//     there are processors, each thread's progress is dilated by R/P and
//     threads periodically migrate between processors (losing cache
//     affinity), matching the behaviour the paper attributes to Solaris,
//   - a CostModel assigning cycle prices to ALU work, cache events and
//     lock operations.
//
// Threads are ordinary Go functions that receive a *Ctx and call
// Ctx.Advance, Ctx.Read/Write, Ctx.Lock/Unlock and so on. Each runs on
// a pooled coroutine (iter.Pull), and the *Ctx belongs to that
// coroutine: it is valid only while the thread runs and then serves
// the next thread the coroutine runs, so a spawn allocates nothing on
// the host but the Thread record. A thread that yields or blocks runs
// the scheduling loop on its own coroutine and resumes its successor
// directly (see Engine.schedule), so the engine executes exactly one
// thread at a time and always steps the runnable thread with the
// smallest virtual clock. That makes every simulation fully
// deterministic and independent of the host machine.
//
// The engine holds only the threads that have not finished. When a
// thread finishes, its counters are folded into the engine's totals
// (Engine.Stats) and the engine drops every reference to it, so host
// memory grows with the threads alive at once, not with the threads a
// run ever spawned. The *Thread that Engine.Go and Ctx.Go return is the
// caller's handle and stays valid for as long as the caller keeps it.
//
// As an optimization the engine grants the running thread a lease: the
// thread may execute engine calls without yielding while its clock stays
// below the second-smallest runnable clock. Operations that could make
// another thread runnable earlier (unlock handoff, spawn, waitgroup
// completion) shrink the lease accordingly, preserving the scheduling
// invariant. No other thread could act before the lease ends, so a
// lease changes no simulated result, only how often the host switches
// coroutines.
//
// Ctx.Compute goes further for private work, which reads and writes
// only the calling thread's own state: while the engine is untraced and
// not oversubscribed it lets the thread run ahead of the others without
// yielding, in a segment that Ctx.Sync closes once every other thread
// has caught up in virtual time. A caller of Compute must call Sync
// before it touches shared state (any other engine operation, or host
// state another thread reads); the engine syncs a thread when its
// function returns. A spawn that oversubscribes the machine rolls open
// segments back to the units that precede it, so run-ahead too changes
// no simulated result.
//
// The memory model the run-ahead rests on is that a shared access takes
// effect at its start: a load's value is what memory held when the
// load began in virtual time, and a store is visible from the moment it
// began. Ctx.ReadAhead and Ctx.WriteAhead charge such an access through
// the cache model and, when the charge expires the lease, open a
// run-ahead segment where Compute would instead of yielding: the caller
// has already moved the value, so nothing another thread does while the
// access is charged can change it.
package sim
