// Package ptmalloc reproduces Wolfram Gloger's ptmalloc as described in
// §6 of the paper: a set of arenas, each a Doug Lea heap behind its own
// mutex. A thread allocates from the arena it used last; if that arena's
// lock is taken it "spins" over the other arenas with trylock, and if
// every arena is busy a new arena is created (up to a limit), after
// which the thread blocks on its preferred arena. Blocks are always
// freed to the arena that carved them.
package ptmalloc

import (
	"fmt"

	"amplify/internal/alloc"
	"amplify/internal/heapcore"
	"amplify/internal/mem"
	"amplify/internal/sim"
)

// PathOps is the per-operation bookkeeping charge of the tuned Lea core.
const PathOps = 35

// MaxArenasPerCPU bounds arena creation, as in ptmalloc.
const MaxArenasPerCPU = 2

type arena struct {
	heap *heapcore.Heap
	lock *sim.Mutex
}

// Allocator is the multi-arena allocator.
type Allocator struct {
	e      *sim.Engine
	sp     *mem.Space
	arenas []*arena
	max    int
	// affinity[slot] is one plus the index of the arena thread slot
	// moved to last, zero while it has never left its default arena.
	affinity []int32
	// owner maps each live block to its arena.
	owner map[mem.Ref]int
	stats alloc.Stats
}

// New creates a ptmalloc-style allocator with one initial arena.
func New(e *sim.Engine, sp *mem.Space) *Allocator {
	a := &Allocator{
		e:     e,
		sp:    sp,
		max:   MaxArenasPerCPU * e.Processors(),
		owner: make(map[mem.Ref]int),
	}
	a.addArena()
	return a
}

func init() {
	alloc.Register("ptmalloc", func(e *sim.Engine, sp *mem.Space, opt alloc.Options) alloc.Allocator {
		a := New(e, sp)
		if opt.Arenas > 0 {
			a.max = opt.Arenas
		}
		return a
	})
}

func (a *Allocator) addArena() int {
	id := len(a.arenas)
	h := heapcore.New(a.sp, heapcore.Config{PathOps: PathOps})
	a.arenas = append(a.arenas, &arena{
		heap: h,
		lock: a.e.NewMutexAt(fmt.Sprintf("ptmalloc.arena%d", id), uint64(h.MetaBase())+heapcore.LockOffset),
	})
	return id
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "ptmalloc" }

// Arenas reports how many arenas exist (tests observe arena growth).
func (a *Allocator) Arenas() int { return len(a.arenas) }

// lockArena implements the arena-selection protocol and returns the
// locked arena's index.
func (a *Allocator) lockArena(c *sim.Ctx) int {
	tid := c.ThreadID()
	pref := tid % len(a.arenas)
	if tid < len(a.affinity) && a.affinity[tid] != 0 {
		pref = int(a.affinity[tid]) - 1
	}
	// Fast path: the last-used arena.
	if a.arenas[pref].lock.TryLock(c) {
		return pref
	}
	// Spin over the other arenas.
	for i := 1; i < len(a.arenas); i++ {
		id := (pref + i) % len(a.arenas)
		if a.arenas[id].lock.TryLock(c) {
			a.setAffinity(tid, id)
			return id
		}
	}
	// All busy: grow if allowed, otherwise block on the preferred arena.
	if len(a.arenas) < a.max {
		id := a.addArena()
		a.arenas[id].lock.Lock(c)
		a.setAffinity(tid, id)
		return id
	}
	a.arenas[pref].lock.Lock(c)
	return pref
}

// setAffinity records arena id as thread slot tid's preferred arena.
func (a *Allocator) setAffinity(tid, id int) {
	if tid >= len(a.affinity) {
		a.affinity = append(a.affinity, make([]int32, tid+1-len(a.affinity))...)
	}
	a.affinity[tid] = int32(id + 1)
}

// Alloc implements alloc.Allocator.
func (a *Allocator) Alloc(c *sim.Ctx, size int64) mem.Ref {
	id := a.lockArena(c)
	ar := a.arenas[id]
	ref := ar.heap.Alloc(c, size)
	a.owner[ref] = id
	n := ar.heap.UsableSize(ref)
	a.stats.Count(size, n)
	ar.lock.Unlock(c)
	c.Emit(sim.Event{Kind: sim.EvHeapAlloc, Arg1: n, Arg2: int64(ref), Arg3: size})
	return ref
}

// Free implements alloc.Allocator. The block returns to its home arena,
// whose lock must be taken even when another thread triggered the free —
// this cross-arena traffic is ptmalloc's real behaviour.
func (a *Allocator) Free(c *sim.Ctx, ref mem.Ref) {
	id, ok := a.owner[ref]
	if !ok {
		panic(fmt.Sprintf("ptmalloc: Free of unknown block %#x", uint64(ref)))
	}
	ar := a.arenas[id]
	ar.lock.Lock(c)
	n := ar.heap.UsableSize(ref)
	a.stats.Uncount(n)
	ar.heap.Free(c, ref)
	ar.lock.Unlock(c)
	c.Trace(sim.EvHeapFree, "", n, int64(ref))
}

// UsableSize implements alloc.Allocator.
func (a *Allocator) UsableSize(ref mem.Ref) int64 {
	id, ok := a.owner[ref]
	if !ok {
		panic(fmt.Sprintf("ptmalloc: UsableSize of unknown block %#x", uint64(ref)))
	}
	return a.arenas[id].heap.UsableSize(ref)
}

// Stats implements alloc.Allocator.
func (a *Allocator) Stats() alloc.Stats { return a.stats }

// Inspect implements alloc.Inspector: the aggregate over all arenas,
// with per-arena occupancy in Arenas.
func (a *Allocator) Inspect() alloc.HeapInfo {
	var hi alloc.HeapInfo
	for id, ar := range a.arenas {
		i := ar.heap.Inspect()
		hi.Merge(alloc.HeapInfo{
			FreeBytes: i.FreeBytes, FreeBlocks: i.FreeBlocks, LargestFree: i.LargestFree,
			WildernessFree: i.WildernessFree, WildernessHW: i.WildernessHW,
			ReqBytes: i.ReqBytes, GrantedBytes: i.GrantedBytes,
		})
		hi.Arenas = append(hi.Arenas, alloc.ArenaInfo{
			Name:       fmt.Sprintf("arena%d", id),
			LiveBlocks: i.LiveBlocks, LiveBytes: i.LiveBytes,
			FreeBlocks: i.FreeBlocks, FreeBytes: i.FreeBytes,
		})
	}
	return hi
}
