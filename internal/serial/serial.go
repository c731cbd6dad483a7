// Package serial implements the baseline allocator of the paper: a
// single heap protected by one global mutex, standing in for the default
// Solaris 2.6 malloc. Every multithreaded allocation serializes on the
// global lock, which is the bottleneck the paper's Figures 4-6 take as
// the speedup baseline (speedup 1 = one thread on this allocator).
package serial

import (
	"amplify/internal/alloc"
	"amplify/internal/heapcore"
	"amplify/internal/mem"
	"amplify/internal/sim"
)

// PathOps is the per-operation bookkeeping charge of the baseline
// allocator. It is deliberately higher than the tuned ptmalloc core:
// the mid-90s Solaris malloc did a costlier fit search, which is why the
// paper finds that reducing allocation counts helps uniprocessors too.
const PathOps = 90

// Allocator is the single-lock baseline allocator.
type Allocator struct {
	heap  *heapcore.Heap
	lock  *sim.Mutex
	stats alloc.Stats
}

// New creates the baseline allocator.
func New(e *sim.Engine, sp *mem.Space) *Allocator {
	h := heapcore.New(sp, heapcore.Config{PathOps: PathOps})
	return &Allocator{
		heap: h,
		lock: e.NewMutexAt("serial.global", uint64(h.MetaBase())+heapcore.LockOffset),
	}
}

func init() {
	alloc.Register("serial", func(e *sim.Engine, sp *mem.Space, opt alloc.Options) alloc.Allocator {
		return New(e, sp)
	})
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "serial" }

// Alloc implements alloc.Allocator.
func (a *Allocator) Alloc(c *sim.Ctx, size int64) mem.Ref {
	a.lock.Lock(c)
	ref := a.heap.Alloc(c, size)
	n := a.heap.UsableSize(ref)
	a.stats.Count(size, n)
	a.lock.Unlock(c)
	c.Emit(sim.Event{Kind: sim.EvHeapAlloc, Arg1: n, Arg2: int64(ref), Arg3: size})
	return ref
}

// Free implements alloc.Allocator.
func (a *Allocator) Free(c *sim.Ctx, ref mem.Ref) {
	a.lock.Lock(c)
	n := a.heap.UsableSize(ref)
	a.stats.Uncount(n)
	a.heap.Free(c, ref)
	a.lock.Unlock(c)
	c.Trace(sim.EvHeapFree, "", n, int64(ref))
}

// UsableSize implements alloc.Allocator.
func (a *Allocator) UsableSize(ref mem.Ref) int64 { return a.heap.UsableSize(ref) }

// Stats implements alloc.Allocator.
func (a *Allocator) Stats() alloc.Stats { return a.stats }

// Lock exposes the global mutex for contention assertions in tests.
func (a *Allocator) Lock() *sim.Mutex { return a.lock }

// Inspect implements alloc.Inspector.
func (a *Allocator) Inspect() alloc.HeapInfo {
	i := a.heap.Inspect()
	return alloc.HeapInfo{
		FreeBytes: i.FreeBytes, FreeBlocks: i.FreeBlocks, LargestFree: i.LargestFree,
		WildernessFree: i.WildernessFree, WildernessHW: i.WildernessHW,
		ReqBytes: i.ReqBytes, GrantedBytes: i.GrantedBytes,
	}
}
