package heapcore

import (
	"fmt"

	"amplify/internal/alloc"
	"amplify/internal/mem"
	"amplify/internal/sim"
)

// Set is a set of heaps, each behind its own mutex at MetaBase()+
// LockOffset. The heaps share one block index, which records each
// block's usable size and owning heap, so a block is freed to the heap
// that carved it whichever thread frees it. The set counts the
// allocator's Stats.
//
// A Set implements alloc.Allocator and alloc.Inspector; the allocator
// built on it supplies pick, which chooses the heap of an allocation
// and returns it with its mutex held.
type Set struct {
	e       *sim.Engine
	sp      *mem.Space
	pathOps int64
	pick    func(c *sim.Ctx) int

	heaps []setHeap
	index Index
	stats alloc.Stats
}

type setHeap struct {
	*Heap
	lock *sim.Mutex
	row  string // Inspect row name; "" reports no row
}

// NewSet creates the empty set of the allocator name, whose heaps
// charge pathOps per operation.
func NewSet(e *sim.Engine, sp *mem.Space, name string, pathOps int64, pick func(c *sim.Ctx) int) *Set {
	return &Set{e: e, sp: sp, pathOps: pathOps, pick: pick, index: Index{Name: name}}
}

// Name implements alloc.Allocator.
func (s *Set) Name() string { return s.index.Name }

// Add creates a heap and its mutex, named lock, and returns the heap's
// number. Inspect reports the heap as an arena named row, or not at all
// when row is empty.
func (s *Set) Add(lock, row string) int {
	id := len(s.heaps)
	if id == maxOwners {
		panic(fmt.Sprintf("%s: a set holds at most %d heaps", s.index.Name, maxOwners))
	}
	h := newHeap(s.sp, s.pathOps, &s.index, id)
	s.heaps = append(s.heaps, setHeap{h, s.e.NewMutexAt(lock, uint64(h.MetaBase())+LockOffset), row})
	return id
}

// Len reports the number of heaps.
func (s *Set) Len() int { return len(s.heaps) }

// Mutex returns heap i's mutex.
func (s *Set) Mutex(i int) *sim.Mutex { return s.heaps[i].lock }

// Alloc implements alloc.Allocator: it allocates from the heap pick
// locked.
func (s *Set) Alloc(c *sim.Ctx, size int64) mem.Ref {
	// pick may add a heap, so index s.heaps only after it returns.
	i := s.pick(c)
	h := s.heaps[i]
	ref, n := h.alloc(c, size)
	s.stats.Count(size, n)
	h.lock.Unlock(c)
	c.Emit(sim.Event{Kind: sim.EvHeapAlloc, Arg1: n, Arg2: int64(ref), Arg3: size})
	return ref
}

// Free implements alloc.Allocator: the block returns to its owning
// heap, whose lock is taken even when another thread allocated it.
func (s *Set) Free(c *sim.Ctx, ref mem.Ref) {
	n, i := s.index.Lookup(ref, "Free")
	h := s.heaps[i]
	h.lock.Lock(c)
	s.stats.Uncount(n)
	h.free(c, ref, n)
	h.lock.Unlock(c)
	c.Trace(sim.EvHeapFree, "", n, int64(ref))
}

// UsableSize implements alloc.Allocator.
func (s *Set) UsableSize(ref mem.Ref) int64 {
	n, _ := s.index.Lookup(ref, "UsableSize")
	return n
}

// Stats implements alloc.Allocator.
func (s *Set) Stats() alloc.Stats { return s.stats }

// Inspect implements alloc.Inspector: the aggregate over the heaps,
// with one ArenaInfo per heap added with a row name.
func (s *Set) Inspect() alloc.HeapInfo {
	var hi alloc.HeapInfo
	for _, h := range s.heaps {
		info := h.Inspect()
		hi.Merge(info.HeapInfo())
		if h.row != "" {
			hi.Arenas = append(hi.Arenas, alloc.ArenaInfo{
				Name:       h.row,
				LiveBlocks: info.LiveBlocks, LiveBytes: info.LiveBytes,
				FreeBlocks: info.FreeBlocks, FreeBytes: info.FreeBytes,
			})
		}
	}
	return hi
}
