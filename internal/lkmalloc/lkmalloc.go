// Package lkmalloc implements LKmalloc (Larson & Krishnan, "Memory
// Allocation for Long-Running Server Applications", ISMM '98), the
// third parallel allocator of the paper's related-work section. The
// paper lists it but did not evaluate it ("Not investigated by us");
// it is provided here for completeness and as an extra baseline.
//
// The design, per the ISMM paper: a fixed set of per-processor heaps;
// a thread hashes to a heap on each allocation (so no per-thread state
// and no arena migration), every heap has size-class free lists behind
// its own lock, and blocks are returned to the heap that owns them.
// The per-operation hashing distinguishes it from ptmalloc (sticky
// arena affinity) and Hoard (id modulation plus a global heap).
package lkmalloc

import (
	"fmt"

	"amplify/internal/alloc"
	"amplify/internal/heapcore"
	"amplify/internal/mem"
	"amplify/internal/sim"
)

// PathOps is the per-operation bookkeeping charge.
const PathOps = 30

type heap struct {
	core *heapcore.Heap
	lock *sim.Mutex
}

// Allocator is the LKmalloc-style allocator.
type Allocator struct {
	heaps []*heap
	owner map[mem.Ref]int
	stats alloc.Stats
}

// New creates an LKmalloc-style allocator with one heap per processor
// (heaps overrides when positive).
func New(e *sim.Engine, sp *mem.Space, heaps int) *Allocator {
	if heaps <= 0 {
		heaps = e.Processors()
	}
	a := &Allocator{owner: make(map[mem.Ref]int)}
	for i := 0; i < heaps; i++ {
		h := heapcore.New(sp, heapcore.Config{PathOps: PathOps})
		a.heaps = append(a.heaps, &heap{
			core: h,
			lock: e.NewMutexAt(fmt.Sprintf("lkmalloc.heap%d", i), uint64(h.MetaBase())+heapcore.LockOffset),
		})
	}
	return a
}

func init() {
	alloc.Register("lkmalloc", func(e *sim.Engine, sp *mem.Space, opt alloc.Options) alloc.Allocator {
		return New(e, sp, opt.Arenas)
	})
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "lkmalloc" }

// heapFor hashes the calling thread and its current processor to a
// heap. Using the processor keeps allocation local after migrations —
// the property Larson & Krishnan emphasize for long-running servers.
func (a *Allocator) heapFor(c *sim.Ctx) int {
	return c.CPU() % len(a.heaps)
}

// Alloc implements alloc.Allocator.
func (a *Allocator) Alloc(c *sim.Ctx, size int64) mem.Ref {
	id := a.heapFor(c)
	h := a.heaps[id]
	h.lock.Lock(c)
	ref := h.core.Alloc(c, size)
	a.owner[ref] = id
	n := h.core.UsableSize(ref)
	a.stats.Count(size, n)
	h.lock.Unlock(c)
	c.Emit(sim.Event{Kind: sim.EvHeapAlloc, Arg1: n, Arg2: int64(ref), Arg3: size})
	return ref
}

// Free implements alloc.Allocator: blocks return to their owning heap.
func (a *Allocator) Free(c *sim.Ctx, ref mem.Ref) {
	id, ok := a.owner[ref]
	if !ok {
		panic(fmt.Sprintf("lkmalloc: Free of unknown block %#x", uint64(ref)))
	}
	h := a.heaps[id]
	h.lock.Lock(c)
	n := h.core.UsableSize(ref)
	a.stats.Uncount(n)
	h.core.Free(c, ref)
	h.lock.Unlock(c)
	c.Trace(sim.EvHeapFree, "", n, int64(ref))
}

// UsableSize implements alloc.Allocator.
func (a *Allocator) UsableSize(ref mem.Ref) int64 {
	id, ok := a.owner[ref]
	if !ok {
		panic(fmt.Sprintf("lkmalloc: UsableSize of unknown block %#x", uint64(ref)))
	}
	return a.heaps[id].core.UsableSize(ref)
}

// Stats implements alloc.Allocator.
func (a *Allocator) Stats() alloc.Stats { return a.stats }

// Inspect implements alloc.Inspector: the aggregate over the
// per-processor heaps, each also reported as one ArenaInfo.
func (a *Allocator) Inspect() alloc.HeapInfo {
	var hi alloc.HeapInfo
	for id, h := range a.heaps {
		i := h.core.Inspect()
		hi.Merge(alloc.HeapInfo{
			FreeBytes: i.FreeBytes, FreeBlocks: i.FreeBlocks, LargestFree: i.LargestFree,
			WildernessFree: i.WildernessFree, WildernessHW: i.WildernessHW,
			ReqBytes: i.ReqBytes, GrantedBytes: i.GrantedBytes,
		})
		hi.Arenas = append(hi.Arenas, alloc.ArenaInfo{
			Name:       fmt.Sprintf("heap%d", id),
			LiveBlocks: i.LiveBlocks, LiveBytes: i.LiveBytes,
			FreeBlocks: i.FreeBlocks, FreeBytes: i.FreeBytes,
		})
	}
	return hi
}
