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
// a pooled coroutine (iter.Pull) that Engine.Run resumes and that
// switches back whenever its thread yields, blocks or finishes, so the
// engine executes exactly one thread at a time and always steps the
// runnable thread with the smallest virtual clock. That makes every
// simulation fully deterministic and independent of the host machine.
//
// As an optimization the engine grants the running thread a lease: the
// thread may execute engine calls without yielding while its clock stays
// below the second-smallest runnable clock. Operations that could make
// another thread runnable earlier (unlock handoff, spawn, waitgroup
// completion) shrink the lease accordingly, preserving the scheduling
// invariant. Within a lease window, memory accesses by the leaseholder
// are not interleaved with other threads' accesses; this slightly batches
// cache-model traffic but affects all allocation strategies equally.
package sim
