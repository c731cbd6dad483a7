// Package smartheap is the stand-in for MicroQuill's closed-source
// "SmartHeap for SMP", which §5.2 and Figure 11 of the paper use as the
// parallel allocator underneath BGw. Its internals were unavailable to
// the paper's authors too; what matters for the experiment is a scalable
// allocator built around per-thread caches: small allocations are served
// lock-free from a per-thread free-list cache that is refilled from (and
// flushed to) a shared locked heap in batches.
package smartheap

import (
	"fmt"

	"amplify/internal/alloc"
	"amplify/internal/heapcore"
	"amplify/internal/mem"
	"amplify/internal/sim"
)

const (
	// PathOps is charged on every cached (lock-free) operation.
	PathOps = 12
	// CacheCap is the per-class capacity of a thread cache.
	CacheCap = 32
	// BatchSize is how many blocks move between a thread cache and the
	// shared heap on refill or flush.
	BatchSize = 16
	// MaxCached is the largest class served by thread caches.
	MaxCached = 1024
	// cacheClasses counts the classes from heapcore.MinClass to MaxCached.
	cacheClasses = 7
)

type threadCache struct {
	// lists[class] holds cached free blocks.
	lists [cacheClasses][]mem.Ref
	// metaBase gives each cache private metadata lines.
	metaBase mem.Ref
}

// Allocator is the SmartHeap-like per-thread cache allocator.
type Allocator struct {
	sp     *mem.Space
	shared *heapcore.Heap
	// index is the shared heap's block index. A block's owner is 0
	// while it is large and its cache class + 1 while cached, as a
	// refill's first fit may take a block larger than the class.
	index *heapcore.Index
	lock  *sim.Mutex
	// caches holds the per-thread caches, indexed by thread slot.
	caches []*threadCache
	stats  alloc.Stats
}

// New creates the allocator.
func New(e *sim.Engine, sp *mem.Space) *Allocator {
	index := &heapcore.Index{Name: "smartheap"}
	shared := heapcore.New(sp, heapcore.Config{PathOps: 35}, index)
	return &Allocator{
		sp:     sp,
		shared: shared,
		index:  index,
		lock:   e.NewMutexAt("smartheap.shared", uint64(shared.MetaBase())+heapcore.LockOffset),
	}
}

func init() {
	alloc.Register("smartheap", func(e *sim.Engine, sp *mem.Space, opt alloc.Options) alloc.Allocator {
		return New(e, sp)
	})
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "smartheap" }

func (a *Allocator) cacheFor(tid int) *threadCache {
	tc := heapcore.Slot(&a.caches, tid)
	if tc.metaBase == mem.Nil {
		tc.metaBase = a.sp.Sbrk(nil, mem.PageSize)
	}
	return tc
}

// Alloc implements alloc.Allocator.
func (a *Allocator) Alloc(c *sim.Ctx, size int64) mem.Ref {
	ci, csize := heapcore.SizeClass(size, MaxCached)
	if ci < 0 {
		// Large: straight to the shared heap.
		a.lock.Lock(c)
		ref, usable := a.shared.Alloc(c, size, 0)
		a.stats.Count(size, usable)
		a.lock.Unlock(c)
		c.Emit(sim.Event{Kind: sim.EvHeapAlloc, Arg1: usable, Arg2: int64(ref), Arg3: size})
		return ref
	}
	c.Work(PathOps)
	tc := a.cacheFor(c.ThreadID())
	listAddr := uint64(tc.metaBase) + uint64(8*ci)
	c.Read(listAddr, 8)
	if len(tc.lists[ci]) == 0 {
		a.refill(c, tc, ci)
	}
	last := len(tc.lists[ci]) - 1
	ref := tc.lists[ci][last]
	tc.lists[ci] = tc.lists[ci][:last]
	c.Read(uint64(ref), 8)
	c.Write(listAddr, 8)
	a.stats.Count(size, csize)
	c.Emit(sim.Event{Kind: sim.EvHeapAlloc, Arg1: csize, Arg2: int64(ref), Arg3: size})
	return ref
}

// refill pulls a batch of blocks of class ci from the shared heap.
func (a *Allocator) refill(c *sim.Ctx, tc *threadCache, ci int) {
	a.lock.Lock(c)
	for i := 0; i < BatchSize; i++ {
		ref, _ := a.shared.Alloc(c, heapcore.MinClass<<ci, ci+1)
		tc.lists[ci] = append(tc.lists[ci], ref)
	}
	a.lock.Unlock(c)
}

// Free implements alloc.Allocator. Small blocks go to the calling
// thread's cache (SmartHeap-style), overflowing in batches to the
// shared heap.
func (a *Allocator) Free(c *sim.Ctx, ref mem.Ref) {
	usable, ci := a.usable(ref, "Free")
	a.stats.Uncount(usable)
	c.Trace(sim.EvHeapFree, "", usable, int64(ref))
	if ci < 0 {
		a.lock.Lock(c)
		a.shared.Free(c, ref)
		a.lock.Unlock(c)
		return
	}
	c.Work(PathOps)
	tc := a.cacheFor(c.ThreadID())
	listAddr := uint64(tc.metaBase) + uint64(8*ci)
	c.Write(uint64(ref), 8)
	c.Write(listAddr, 8)
	tc.lists[ci] = append(tc.lists[ci], ref)
	if len(tc.lists[ci]) > CacheCap {
		a.flush(c, tc, ci)
	}
}

// flush returns a batch of cached blocks to the shared heap.
func (a *Allocator) flush(c *sim.Ctx, tc *threadCache, ci int) {
	a.lock.Lock(c)
	for i := 0; i < BatchSize; i++ {
		last := len(tc.lists[ci]) - 1
		ref := tc.lists[ci][last]
		tc.lists[ci] = tc.lists[ci][:last]
		a.shared.Free(c, ref)
	}
	a.lock.Unlock(c)
}

// UsableSize implements alloc.Allocator.
func (a *Allocator) UsableSize(ref mem.Ref) int64 {
	usable, _ := a.usable(ref, "UsableSize")
	return usable
}

// usable returns a block's usable size and its cache class, -1 for a
// large block; an unknown ref panics, naming the operation op.
func (a *Allocator) usable(ref mem.Ref, op string) (int64, int) {
	n, owner := a.index.Lookup(ref, op)
	if owner == 0 {
		return n, -1
	}
	return heapcore.MinClass << (owner - 1), owner - 1
}

// Stats implements alloc.Allocator.
func (a *Allocator) Stats() alloc.Stats { return a.stats }

// Inspect implements alloc.Inspector: the shared heap's state plus one
// ArenaInfo per thread cache reporting its free-list depth. Cache
// blocks are free from the allocator's view but still counted inside
// the shared heap's live bytes, so they appear only in the per-cache
// rows, not the aggregate.
func (a *Allocator) Inspect() alloc.HeapInfo {
	hi := a.shared.Inspect().HeapInfo()
	hi.ReqBytes, hi.GrantedBytes = a.stats.ReqBytes, a.stats.GrantBytes
	for tid, tc := range a.caches {
		if tc == nil {
			continue
		}
		ai := alloc.ArenaInfo{Name: fmt.Sprintf("tcache%d", tid)}
		for ci, list := range tc.lists {
			n := int64(len(list))
			ai.FreeBlocks += n
			ai.FreeBytes += n * (heapcore.MinClass << ci)
		}
		hi.Arenas = append(hi.Arenas, ai)
	}
	return hi
}
