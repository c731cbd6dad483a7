// Package lfalloc implements a lock-free concurrent fixed-size pool
// allocator on the simulated machine, combining two published designs:
//
//   - Blelloch & Wei's concurrent fixed-size allocation: alloc and free
//     complete in a bounded number of steps. Here the bound is a fixed
//     CAS budget per shared-structure attempt — when the budget is
//     exhausted under heavy contention the operation falls back to the
//     thread's private list instead of retrying forever, so neither
//     path ever loops unboundedly.
//   - Kenwright's fixed-size memory pool: blocks are addressed by index
//     and the free list threads through the blocks themselves, so a
//     freshly carved chunk needs no initialization pass — unused blocks
//     are handed out by bumping an index, and only blocks that have
//     actually been freed ever appear on a free list.
//
// Each power-of-two size class owns one shared Treiber stack of free
// block indices whose head is a simulated atomic word (sim.Ctx.CAS /
// AtomicLoad), tagged with a version counter against ABA. All
// coherence traffic — the RFO storm when many threads hammer one head
// word, the invalidations a failed CAS still causes — is charged
// through the simulator's MESI model, which is exactly the effect the
// contention-scaling experiment measures against lock-based
// allocators: a failed CAS costs one line transfer, while a failed
// lock acquisition costs a block/wakeup round-trip.
package lfalloc

import (
	"fmt"

	"amplify/internal/alloc"
	"amplify/internal/heapcore"
	"amplify/internal/mem"
	"amplify/internal/sim"
)

const (
	// PathOps is the per-operation bookkeeping charge (size-class
	// lookup, index arithmetic). Deliberately small: the lock-free
	// design has no fit search and no lock fast path.
	PathOps = 8
	// MaxClass is the largest block served from the class pools;
	// larger requests go straight to the address space.
	MaxClass = 2048
	// CASBudget bounds the shared-stack attempts of one alloc or free.
	// Exhausting it routes the operation to the thread-private list, so
	// both operations are constant-time even under pathological
	// contention (Blelloch & Wei's bound, realized as budget-then-help-
	// yourself rather than budget-then-help-others).
	CASBudget = 3
	// chunkTarget is the payload carved per chunk for small classes;
	// every chunk holds at least minChunkBlocks blocks.
	chunkTarget    = 4096
	minChunkBlocks = 4
)

// priv is one thread's private state for one size class: the overflow
// free list that absorbs operations whose CAS budget ran out, and the
// bump region of the chunk this thread most recently carved.
type priv struct {
	free    []int32 // block indices freed privately (LIFO)
	bumpOff int64   // next un-handed-out offset in the bump chunk
	bumpEnd int64
	bumpRef mem.Ref
}

// class is one fixed-size pool.
type class struct {
	ci        int // index within Allocator.classes
	blockSize int64
	// headAddr is the simulated atomic word holding the shared free
	// stack's packed head: low 32 bits are index+1 (0 = empty stack),
	// high bits a version tag bumped by every successful push and pop
	// so an ABA'd head never compares equal.
	headAddr uint64
	// blocks maps block index -> simulated address; next mirrors the
	// in-block next links of the shared stack (-1 = end). Both are
	// host-side structural metadata, like every allocator here.
	blocks []mem.Ref
	next   []int32
	// priv holds the per-thread private state, indexed by thread slot.
	priv []*priv
	// Host-side occupancy counters for Inspect.
	live       int64
	freeShared int64
	freePriv   int64
}

// Allocator is the lock-free pool allocator.
type Allocator struct {
	sp      *mem.Space
	classes []*class
	// loc maps a live or free pooled block to its class and index
	// (class in the high bits, index in the low 32).
	loc   mem.Table[uint64]
	huge  heapcore.Huge
	stats alloc.Stats
}

// New creates the lock-free allocator. The size-class head words live
// on a private metadata page, one cache line apart, so two classes
// never false-share a line.
func New(e *sim.Engine, sp *mem.Space) *Allocator {
	a := &Allocator{sp: sp}
	metaBase := sp.Sbrk(nil, mem.PageSize)
	for bs := int64(heapcore.MinClass); bs <= MaxClass; bs *= 2 {
		a.classes = append(a.classes, &class{
			ci:        len(a.classes),
			blockSize: bs,
			headAddr:  uint64(metaBase) + uint64(len(a.classes))*128,
		})
	}
	return a
}

func init() {
	alloc.Register("lfalloc", func(e *sim.Engine, sp *mem.Space, opt alloc.Options) alloc.Allocator {
		return New(e, sp)
	})
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "lfalloc" }

// popShared tries to pop a block index off the class's shared stack
// within the CAS budget. Reading the top block's next link is safe
// without a lock: a successful tagged CAS proves the head did not move
// between the load and the swap, and next links only change for blocks
// that are off the stack.
func (a *Allocator) popShared(c *sim.Ctx, cl *class) (int32, bool) {
	for attempt := 0; attempt < CASBudget; attempt++ {
		old := c.AtomicLoad(cl.headAddr)
		idx := int32(uint32(old)) - 1
		if idx < 0 {
			return 0, false // empty stack
		}
		c.Read(uint64(cl.blocks[idx]), 8) // the block's next link
		nxt := cl.next[idx]
		packed := int64((uint64(old)>>32+1)<<32 | uint64(uint32(nxt+1)))
		if c.CAS(cl.headAddr, old, packed) {
			cl.freeShared--
			return idx, true
		}
	}
	return 0, false // budget exhausted
}

// pushShared tries to push a block index within the CAS budget.
func (a *Allocator) pushShared(c *sim.Ctx, cl *class, idx int32) bool {
	for attempt := 0; attempt < CASBudget; attempt++ {
		old := c.AtomicLoad(cl.headAddr)
		cl.next[idx] = int32(uint32(old)) - 1
		c.Write(uint64(cl.blocks[idx]), 8) // store the next link in the block
		packed := int64((uint64(old)>>32+1)<<32 | uint64(uint32(idx+1)))
		if c.CAS(cl.headAddr, old, packed) {
			cl.freeShared++
			return true
		}
	}
	return false
}

// locate returns the class and index of a pooled block; an unknown ref
// panics, naming the operation op.
func (a *Allocator) locate(ref mem.Ref, op string) (*class, int32) {
	l, ok := a.loc.Get(ref)
	if !ok {
		panic(fmt.Sprintf("lfalloc: %s of unknown block %#x", op, uint64(ref)))
	}
	return a.classes[l>>32], int32(uint32(l))
}

// Alloc implements alloc.Allocator.
func (a *Allocator) Alloc(c *sim.Ctx, size int64) mem.Ref {
	c.Work(PathOps)
	ci, _ := heapcore.SizeClass(size, MaxClass)
	if ci < 0 {
		return a.huge.Alloc(c, a.sp, &a.stats, size)
	}
	cl := a.classes[ci]
	var ref mem.Ref
	if idx, ok := a.popShared(c, cl); ok {
		ref = cl.blocks[idx]
	} else {
		p := heapcore.Slot(&cl.priv, c.ThreadID())
		if n := len(p.free); n > 0 {
			idx := p.free[n-1]
			p.free = p.free[:n-1]
			cl.freePriv--
			ref = cl.blocks[idx]
			c.Read(uint64(ref), 8) // the private list's next link
		} else {
			if p.bumpOff >= p.bumpEnd {
				// Carve a fresh chunk. Only the carving thread sees its
				// bump region, so no synchronization is needed; blocks
				// reach other threads only after a free publishes them
				// through the shared stack.
				blocks := chunkTarget / cl.blockSize
				if blocks < minChunkBlocks {
					blocks = minChunkBlocks
				}
				p.bumpRef = a.sp.Sbrk(c, blocks*cl.blockSize)
				p.bumpOff, p.bumpEnd = 0, blocks*cl.blockSize
				c.Write(uint64(p.bumpRef), 8) // chunk header
			}
			ref = p.bumpRef + mem.Ref(p.bumpOff)
			p.bumpOff += cl.blockSize
			// A fresh block's index is handed out by bumping, never by
			// an initialization sweep (Kenwright).
			a.loc.Put(ref, uint64(cl.ci)<<32|uint64(len(cl.blocks)))
			cl.blocks = append(cl.blocks, ref)
			cl.next = append(cl.next, -1)
		}
	}
	cl.live++
	a.stats.Count(size, cl.blockSize)
	c.Emit(sim.Event{Kind: sim.EvHeapAlloc, Arg1: cl.blockSize, Arg2: int64(ref), Arg3: size})
	return ref
}

// Free implements alloc.Allocator. The block is pushed onto its
// class's shared stack; when the CAS budget runs out under contention
// it lands on the freeing thread's private list instead — still
// constant time, and the block is reused by that thread's next
// budget-exhausted Alloc.
func (a *Allocator) Free(c *sim.Ctx, ref mem.Ref) {
	c.Work(PathOps)
	if a.huge.Free(c, &a.stats, ref) {
		return
	}
	cl, idx := a.locate(ref, "Free")
	cl.live--
	a.stats.Uncount(cl.blockSize)
	if !a.pushShared(c, cl, idx) {
		p := heapcore.Slot(&cl.priv, c.ThreadID())
		p.free = append(p.free, idx)
		cl.freePriv++
		c.Write(uint64(ref), 8) // private list link
	}
	c.Trace(sim.EvHeapFree, "", cl.blockSize, int64(ref))
}

// UsableSize implements alloc.Allocator.
func (a *Allocator) UsableSize(ref mem.Ref) int64 {
	if usable, ok := a.huge.UsableSize(ref); ok {
		return usable
	}
	cl, _ := a.locate(ref, "UsableSize")
	return cl.blockSize
}

// Stats implements alloc.Allocator.
func (a *Allocator) Stats() alloc.Stats { return a.stats }

// Inspect implements alloc.Inspector. Each size class is one arena;
// while any block above MaxClass is live, a last "huge" row holds
// those, which came straight from the address space. Free bytes split
// into the shared stack plus the private overflow lists, and the
// un-handed-out bump regions count as wilderness.
func (a *Allocator) Inspect() alloc.HeapInfo {
	hi := alloc.HeapInfo{
		ReqBytes:     a.stats.ReqBytes,
		GrantedBytes: a.stats.GrantBytes,
	}
	for _, cl := range a.classes {
		free := cl.freeShared + cl.freePriv
		ai := alloc.ArenaInfo{
			Name:       fmt.Sprintf("class%d", cl.blockSize),
			LiveBlocks: cl.live,
			LiveBytes:  cl.live * cl.blockSize,
			FreeBlocks: free,
			FreeBytes:  free * cl.blockSize,
		}
		hi.FreeBlocks += ai.FreeBlocks
		hi.FreeBytes += ai.FreeBytes
		if free > 0 && cl.blockSize > hi.LargestFree {
			hi.LargestFree = cl.blockSize
		}
		var wild int64
		for _, p := range cl.priv {
			if p != nil {
				wild += p.bumpEnd - p.bumpOff
			}
		}
		hi.WildernessFree += wild
		if wild > hi.WildernessHW {
			hi.WildernessHW = wild
		}
		hi.Arenas = append(hi.Arenas, ai)
	}
	a.huge.AddRow(&hi)
	return hi
}
