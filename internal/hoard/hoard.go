// Package hoard reproduces the Hoard allocator (Berger et al.,
// ASPLOS-IX 2000) at the level of detail the paper's experiments
// exercise: per-processor heaps holding superblocks of one size class
// each, a global heap that receives empty superblocks, and — crucially
// for Figure 10 — assignment of threads to heaps by modulation of the
// thread id, which makes threads collide on heaps (and their locks) as
// soon as there are more threads than heaps.
package hoard

import (
	"fmt"

	"amplify/internal/alloc"
	"amplify/internal/heapcore"
	"amplify/internal/mem"
	"amplify/internal/sim"
)

const (
	// PathOps is the per-operation bookkeeping charge.
	PathOps = 25
	// SuperblockSize is the bytes of payload carved per superblock.
	SuperblockSize = 4096
	// MaxClass is the largest block served from superblocks; larger
	// requests go straight to the address space.
	MaxClass = 2048
	// RetainPerClass is how many superblocks of a class a heap keeps
	// before returning fully-empty ones to the global heap.
	RetainPerClass = 2
)

type superblock struct {
	class     int
	blockSize int64
	base      mem.Ref
	free      []mem.Ref
	used      int
	owner     int // heap index; 0 is the global heap
}

type heap struct {
	name string // the Inspect row
	lock *sim.Mutex
	// sbs[class] lists this heap's superblocks, ones with free blocks
	// kept towards the end for cheap access.
	sbs [][]*superblock
	// metaBase gives each heap private metadata lines.
	metaBase mem.Ref
}

// Allocator is the Hoard-style allocator.
type Allocator struct {
	sp *mem.Space
	// heaps[0] is the global heap; 1..N are the per-processor heaps.
	heaps []*heap
	// index holds each block's size and superblock, a number in sbs.
	index heapcore.Index
	sbs   []*superblock
	huge  heapcore.Huge
	stats alloc.Stats
}

// New creates a Hoard-style allocator with one heap per processor plus
// the global heap. heaps overrides the per-processor heap count when
// positive.
func New(e *sim.Engine, sp *mem.Space, heaps int) *Allocator {
	if heaps <= 0 {
		heaps = e.Processors()
	}
	a := &Allocator{sp: sp, index: heapcore.Index{Name: "hoard"}}
	last, _ := heapcore.SizeClass(MaxClass, MaxClass)
	for i := 0; i <= heaps; i++ {
		name := fmt.Sprintf("heap%d", i)
		if i == 0 {
			name = "global"
		}
		metaBase := sp.Sbrk(nil, mem.PageSize)
		a.heaps = append(a.heaps, &heap{
			name:     name,
			lock:     e.NewMutexAt("hoard."+name, uint64(metaBase)+1024),
			sbs:      make([][]*superblock, last+1),
			metaBase: metaBase,
		})
	}
	return a
}

func init() {
	alloc.Register("hoard", func(e *sim.Engine, sp *mem.Space, opt alloc.Options) alloc.Allocator {
		return New(e, sp, opt.Arenas)
	})
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "hoard" }

// heapFor maps a thread to its heap by id modulation, exactly the
// behaviour the paper blames for Hoard's trouble once threads exceed
// processors.
func (a *Allocator) heapFor(tid int) int {
	return 1 + tid%(len(a.heaps)-1)
}

// newSuperblock carves a fresh superblock for a class.
func (a *Allocator) newSuperblock(c *sim.Ctx, class int) *superblock {
	bs := int64(heapcore.MinClass) << class
	base := a.sp.Sbrk(c, SuperblockSize)
	sb := &superblock{class: class, blockSize: bs, base: base}
	for off := int64(0); off+bs <= SuperblockSize; off += bs {
		ref := base + mem.Ref(off)
		sb.free = append(sb.free, ref)
		a.index.Put(ref, bs, len(a.sbs))
	}
	a.sbs = append(a.sbs, sb)
	c.Write(uint64(base), 16) // initialize superblock header
	return sb
}

// Alloc implements alloc.Allocator.
func (a *Allocator) Alloc(c *sim.Ctx, size int64) mem.Ref {
	c.Work(PathOps)
	class, _ := heapcore.SizeClass(size, MaxClass)
	if class < 0 {
		return a.huge.Alloc(c, a.sp, &a.stats, size)
	}
	hi := a.heapFor(c.ThreadID())
	h := a.heaps[hi]
	h.lock.Lock(c)
	sb := a.takeSuperblock(c, h, hi, class)
	ref := sb.pop(c)
	a.stats.Count(size, sb.blockSize)
	h.lock.Unlock(c)
	c.Emit(sim.Event{Kind: sim.EvHeapAlloc, Arg1: sb.blockSize, Arg2: int64(ref), Arg3: size})
	return ref
}

// takeSuperblock finds a superblock with a free block in heap h,
// fetching one from the global heap or carving a new one if needed.
// Called with h locked.
func (a *Allocator) takeSuperblock(c *sim.Ctx, h *heap, hi, class int) *superblock {
	list := h.sbs[class]
	c.Read(uint64(h.metaBase)+uint64(8*class), 8)
	for i := len(list) - 1; i >= 0; i-- {
		c.Read(uint64(list[i].base), 8) // probe superblock header
		if len(list[i].free) > 0 {
			return list[i]
		}
	}
	// Nothing free here: try the global heap.
	g := a.heaps[0]
	var sb *superblock
	g.lock.Lock(c)
	if gl := g.sbs[class]; len(gl) > 0 {
		sb = gl[len(gl)-1]
		g.sbs[class] = gl[:len(gl)-1]
		c.Read(uint64(sb.base), 8)
	}
	g.lock.Unlock(c)
	if sb == nil {
		sb = a.newSuperblock(c, class)
	}
	sb.owner = hi
	h.sbs[class] = append(h.sbs[class], sb)
	c.Write(uint64(h.metaBase)+uint64(8*class), 8)
	return sb
}

func (sb *superblock) pop(c *sim.Ctx) mem.Ref {
	last := len(sb.free) - 1
	ref := sb.free[last]
	sb.free = sb.free[:last]
	sb.used++
	c.Read(uint64(sb.base), 8)  // superblock free-list head
	c.Read(uint64(ref), 8)      // block link
	c.Write(uint64(sb.base), 8) // update head and counters
	return ref
}

// Free implements alloc.Allocator. The block returns to the heap that
// owns its superblock; fully-empty superblocks beyond the retention
// limit move to the global heap (Hoard's emptiness rule, simplified to
// the fully-empty case).
func (a *Allocator) Free(c *sim.Ctx, ref mem.Ref) {
	c.Work(PathOps)
	if a.huge.Free(c, &a.stats, ref) {
		return
	}
	_, n := a.index.Lookup(ref, "Free")
	sb := a.sbs[n]
	h := a.heaps[sb.owner]
	h.lock.Lock(c)
	sb.free = append(sb.free, ref)
	sb.used--
	a.stats.Uncount(sb.blockSize)
	c.Read(uint64(sb.base), 8)
	c.Write(uint64(ref), 8)
	c.Write(uint64(sb.base), 8)
	if sb.used == 0 && sb.owner != 0 && len(h.sbs[sb.class]) > RetainPerClass {
		a.release(c, h, sb)
	}
	h.lock.Unlock(c)
	c.Trace(sim.EvHeapFree, "", sb.blockSize, int64(ref))
}

// release moves a fully-empty superblock from h to the global heap.
// Called with h locked.
func (a *Allocator) release(c *sim.Ctx, h *heap, sb *superblock) {
	list := h.sbs[sb.class]
	for i, s := range list {
		if s == sb {
			h.sbs[sb.class] = append(list[:i], list[i+1:]...)
			break
		}
	}
	g := a.heaps[0]
	g.lock.Lock(c)
	sb.owner = 0
	g.sbs[sb.class] = append(g.sbs[sb.class], sb)
	c.Write(uint64(sb.base), 8)
	g.lock.Unlock(c)
}

// UsableSize implements alloc.Allocator.
func (a *Allocator) UsableSize(ref mem.Ref) int64 {
	if usable, ok := a.huge.UsableSize(ref); ok {
		return usable
	}
	bs, _ := a.index.Lookup(ref, "UsableSize")
	return bs
}

// Stats implements alloc.Allocator.
func (a *Allocator) Stats() alloc.Stats { return a.stats }

// Inspect implements alloc.Inspector. Each Hoard heap (global heap
// included) becomes one ArenaInfo; while any block above MaxClass is
// live, a last "huge" row holds those, which came straight from the
// address space. Free bytes are the unused blocks of the heaps'
// superblocks, and the largest free block is the biggest class with a
// free block anywhere.
func (a *Allocator) Inspect() alloc.HeapInfo {
	hi := alloc.HeapInfo{
		ReqBytes:     a.stats.ReqBytes,
		GrantedBytes: a.stats.GrantBytes,
	}
	for _, h := range a.heaps {
		ai := alloc.ArenaInfo{Name: h.name}
		for _, list := range h.sbs {
			for _, sb := range list {
				bs := sb.blockSize
				free := int64(len(sb.free))
				ai.FreeBlocks += free
				ai.FreeBytes += free * bs
				ai.LiveBlocks += int64(sb.used)
				ai.LiveBytes += int64(sb.used) * bs
				if free > 0 && bs > hi.LargestFree {
					hi.LargestFree = bs
				}
			}
		}
		hi.FreeBlocks += ai.FreeBlocks
		hi.FreeBytes += ai.FreeBytes
		hi.Arenas = append(hi.Arenas, ai)
	}
	a.huge.AddRow(&hi)
	return hi
}
