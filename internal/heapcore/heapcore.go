// Package heapcore holds what the simulated allocators share: Index,
// their block bookkeeping; Heap, a single-threaded size-class binned
// free-list heap in the style of Doug Lea's allocator; and Set, such
// heaps each behind its own mutex. A Set is the whole of serial (one
// heap behind one global lock, standing in for the Solaris default
// malloc), ptmalloc (one heap per arena) and lkmalloc (one heap per
// processor) but for how an allocation picks its heap. smartheap
// refills its thread caches from a bare Heap, whose thread safety is
// the caller's responsibility.
//
// Realism notes: block headers, bin head pointers and free-list links
// are charged as simulated memory accesses at their real addresses, so
// that metadata cache-line traffic — including false sharing of bin
// heads between processors on the serial allocator — emerges from the
// model rather than being assumed.
package heapcore

import (
	"amplify/internal/alloc"
	"amplify/internal/mem"
	"amplify/internal/sim"
)

const (
	headerSize = 8
	align      = 16
	// smallStep and smallMax define the exact small classes: 16, 32, ...
	smallStep = 16
	smallMax  = 512
	// chunkMin is the minimum region carved from the address space when
	// the wilderness runs dry.
	chunkMin = 64 * 1024
)

// Heap is one binned free-list heap.
type Heap struct {
	space *mem.Space

	// pathOps is extra bookkeeping work charged per operation. The
	// baseline Solaris-style allocator pays more here than the tuned
	// ptmalloc core; the difference reproduces the paper's observation
	// that pooling helps uniprocessors too.
	pathOps int64

	// metaBase is the address of this heap's metadata block: bin head
	// pointers live there, so heaps in different arenas never share
	// metadata cache lines.
	metaBase mem.Ref

	bins    [][]mem.Ref // LIFO free stacks per size class
	classes []int64     // usable size per class

	top    mem.Ref // wilderness pointer
	topEnd mem.Ref
	// topA caches the wilderness pointer's simulated address, which is
	// a pure function of metaBase and the (fixed) bin count; computing
	// it per Alloc/Free showed up in interpreter profiles.
	topA uint64

	// sizes records the usable size of every block ever carved, owned
	// by the heap number id. The heaps of a Set share one index.
	sizes *Index
	id    int

	Allocs, Frees int64
	CarvedBytes   int64
	// Cumulative introspection counters: bytes requested by callers,
	// usable bytes the size classes granted, and usable bytes returned
	// via Free. GrantedBytes-FreedBytes is the live usable footprint.
	ReqBytes, GrantedBytes, FreedBytes int64
	// wildernessHW is the largest wilderness reserve (topEnd-top) the
	// heap ever held, recorded right after each growth.
	wildernessHW int64
}

// Info is a point-in-time snapshot of the heap's internal state; all
// byte counts are usable bytes.
type Info struct {
	LiveBlocks, LiveBytes              int64
	FreeBytes, FreeBlocks, LargestFree int64
	WildernessFree, WildernessHW       int64
	ReqBytes, GrantedBytes             int64
}

// HeapInfo converts the snapshot to the allocator-level form, without
// per-arena rows.
func (i Info) HeapInfo() alloc.HeapInfo {
	return alloc.HeapInfo{
		FreeBytes: i.FreeBytes, FreeBlocks: i.FreeBlocks, LargestFree: i.LargestFree,
		WildernessFree: i.WildernessFree, WildernessHW: i.WildernessHW,
		ReqBytes: i.ReqBytes, GrantedBytes: i.GrantedBytes,
	}
}

// Inspect walks the bins and reports the heap's current state. It is
// host-side only: no simulated work is charged, so observers may call
// it mid-run without perturbing the schedule.
func (h *Heap) Inspect() Info {
	info := Info{
		LiveBlocks:   h.Allocs - h.Frees,
		LiveBytes:    h.GrantedBytes - h.FreedBytes,
		WildernessHW: h.wildernessHW,
		ReqBytes:     h.ReqBytes,
		GrantedBytes: h.GrantedBytes,
	}
	if h.top != mem.Nil {
		info.WildernessFree = int64(h.topEnd - h.top)
	}
	for b, bin := range h.bins {
		n := int64(len(bin))
		if n == 0 {
			continue
		}
		info.FreeBlocks += n
		info.FreeBytes += n * h.classes[b]
		info.LargestFree = h.classes[b] // classes ascend: last wins
	}
	return info
}

// Config parameterizes a heap core.
type Config struct {
	// PathOps is the bookkeeping work (in ops) charged on each alloc and
	// free in addition to modelled memory traffic.
	PathOps int64
}

// New creates a heap on the given space that records its blocks in
// index. The heap reserves one page for its metadata so different heaps
// never share metadata lines.
func New(sp *mem.Space, cfg Config, index *Index) *Heap {
	return newHeap(sp, cfg.PathOps, index, 0)
}

func newHeap(sp *mem.Space, pathOps int64, sizes *Index, id int) *Heap {
	h := &Heap{
		space:   sp,
		pathOps: pathOps,
		sizes:   sizes,
		id:      id,
	}
	for s := int64(smallStep); s <= smallMax; s += smallStep {
		h.classes = append(h.classes, s)
	}
	for s := int64(smallMax) * 2; s <= 1<<20; s *= 2 {
		h.classes = append(h.classes, s)
	}
	h.bins = make([][]mem.Ref, len(h.classes))
	h.metaBase = sp.Sbrk(nil, mem.PageSize)
	h.topA = uint64(h.metaBase) + uint64(8*len(h.bins))
	return h
}

// classFor returns the bin index and usable size for a request, or
// (-1, rounded) for huge blocks served directly from the space.
func (h *Heap) classFor(size int64) (int, int64) {
	if size <= 0 {
		size = 1
	}
	if size <= smallMax {
		idx := int((size + smallStep - 1) / smallStep)
		return idx - 1, int64(idx) * smallStep
	}
	c := int64(smallMax) * 2
	idx := smallMax / smallStep
	for c <= 1<<20 {
		if size <= c {
			return idx, c
		}
		c *= 2
		idx++
	}
	return -1, (size + align - 1) &^ (align - 1)
}

// binAddr is the simulated address of the bin's head pointer.
func (h *Heap) binAddr(bin int) uint64 { return uint64(h.metaBase) + uint64(8*bin) }

// topAddr is the simulated address of the wilderness pointer.
func (h *Heap) topAddr() uint64 { return h.topA }

// MetaBase returns the heap's metadata page address. Callers placing a
// lock word for this heap should use an offset of at least LockOffset.
func (h *Heap) MetaBase() mem.Ref { return h.metaBase }

// LockOffset is a metadata-page offset safely beyond the bin heads and
// wilderness pointer, on its own cache line.
const LockOffset = 1024

// Alloc carves or reuses a block of at least size bytes, records owner
// as its owner in the index (the caller's to choose on a heap made by
// New) and returns it with its usable size.
func (h *Heap) Alloc(c *sim.Ctx, size int64, owner int) (mem.Ref, int64) {
	ref, n := h.alloc(c, size)
	h.sizes.Put(ref, n, owner)
	return ref, n
}

// alloc is Alloc that keeps the owner the index holds.
func (h *Heap) alloc(c *sim.Ctx, size int64) (mem.Ref, int64) {
	h.Allocs++
	c.Work(h.pathOps)
	bin, usable := h.classFor(size)
	if size < 1 {
		size = 1
	}
	h.ReqBytes += size
	h.GrantedBytes += usable
	if bin < 0 {
		// Huge allocation: straight from the space.
		ref := h.space.Sbrk(c, usable+headerSize) + headerSize
		h.sizes.Put(ref, usable, h.id)
		h.CarvedBytes += usable + headerSize
		c.Write(uint64(ref)-headerSize, headerSize)
		return ref, usable
	}
	// First fit over this bin and a bounded number of larger ones
	// (real dlmalloc consults a bin bitmap; the probe bound keeps the
	// modelled search cost comparable), charging a probe per bin.
	for b := bin; b < len(h.bins) && b <= bin+3; b++ {
		c.Read(h.binAddr(b), 8)
		if len(h.bins[b]) == 0 {
			continue
		}
		last := len(h.bins[b]) - 1
		ref := h.bins[b][last]
		h.bins[b] = h.bins[b][:last]
		// Pop: read the block's next link, update the bin head.
		c.Read(uint64(ref), 8)
		c.Write(h.binAddr(b), 8)
		// Header write marks the block in use.
		c.Write(uint64(ref)-headerSize, headerSize)
		// A block from a larger bin keeps its class's size.
		h.GrantedBytes += h.classes[b] - usable
		return ref, h.classes[b]
	}
	return h.carve(c, usable), usable
}

// carve cuts a fresh block from the wilderness, extending the space as
// needed.
func (h *Heap) carve(c *sim.Ctx, usable int64) mem.Ref {
	stride := usable + headerSize
	c.Read(h.topAddr(), 8)
	if h.top == mem.Nil || h.top+mem.Ref(stride) > h.topEnd {
		grow := int64(chunkMin)
		if stride > grow {
			grow = stride
		}
		h.top = h.space.Sbrk(c, grow)
		h.topEnd = h.top + mem.Ref((grow+mem.PageSize-1)/mem.PageSize*mem.PageSize)
		h.CarvedBytes += grow
		if hw := int64(h.topEnd - h.top); hw > h.wildernessHW {
			h.wildernessHW = hw
		}
	}
	ref := h.top + headerSize
	h.top += mem.Ref(stride)
	c.Write(h.topAddr(), 8)
	h.sizes.Put(ref, usable, h.id)
	c.Write(uint64(ref)-headerSize, headerSize)
	return ref
}

// Free returns a block to its size-class bin.
func (h *Heap) Free(c *sim.Ctx, ref mem.Ref) {
	usable, _ := h.sizes.Lookup(ref, "Free")
	h.free(c, ref, usable)
}

// free is Free of a block whose usable size the caller looked up.
func (h *Heap) free(c *sim.Ctx, ref mem.Ref, usable int64) {
	h.Frees++
	c.Work(h.pathOps)
	c.Read(uint64(ref)-headerSize, headerSize) // read header for size
	h.FreedBytes += usable
	bin, _ := h.classFor(usable)
	if bin < 0 {
		// Huge blocks are abandoned to the space (real dlmalloc would
		// munmap; the simulation only tracks footprint).
		return
	}
	// Push: link the block to the current head, update the head.
	c.Read(h.binAddr(bin), 8)
	c.Write(uint64(ref), 8)
	c.Write(h.binAddr(bin), 8)
	h.bins[bin] = append(h.bins[bin], ref)
}
