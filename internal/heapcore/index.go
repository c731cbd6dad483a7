package heapcore

import (
	"fmt"
	"math/bits"

	"amplify/internal/alloc"
	"amplify/internal/mem"
	"amplify/internal/sim"
)

// Index records each block an allocator hands out: its size in the low
// 48 bits of a mem.Table word and a 16-bit owner above them, which the
// allocator defines (a Set's heap, a hoard superblock, a smartheap
// cache class). Freed blocks keep their entries; a caller marks one
// that must be forgotten.
type Index struct {
	Name  string // the allocator, named in panics
	words mem.Table[uint64]
}

const (
	sizeBits  = 48
	maxOwners = 1 << (64 - sizeBits)
)

func (x *Index) get(ref mem.Ref) (size int64, owner int, ok bool) {
	w, ok := x.words.Get(ref)
	return int64(w & (1<<sizeBits - 1)), int(w >> sizeBits), ok
}

// Lookup returns the size and owner of a block that must be known: an
// unknown ref panics, naming the allocator and the operation op.
func (x *Index) Lookup(ref mem.Ref, op string) (size int64, owner int) {
	size, owner, ok := x.get(ref)
	if !ok {
		panic(fmt.Sprintf("%s: %s of unknown block %#x", x.Name, op, uint64(ref)))
	}
	return size, owner
}

// Put records ref's size and owner. A size past 48 bits or an owner
// past 16 panics; neither is truncated.
func (x *Index) Put(ref mem.Ref, size int64, owner int) {
	if uint64(size)>>sizeBits != 0 || uint(owner) >= maxOwners {
		panic(fmt.Sprintf("%s: a block of %d bytes owned by %d overflows the index", x.Name, size, owner))
	}
	x.words.Put(ref, uint64(size)|uint64(owner)<<sizeBits)
}

// Slot returns the per-thread state of the thread in slot tid (the
// engine hands slots out densely from 0), creating it on first use.
func Slot[T any](states *[]*T, tid int) *T {
	if tid >= len(*states) {
		*states = append(*states, make([]*T, tid+1-len(*states))...)
	}
	if (*states)[tid] == nil {
		(*states)[tid] = new(T)
	}
	return (*states)[tid]
}

// MinClass is the smallest power-of-two size class.
const MinClass = 16

// SizeClass is the rule of classes that are the powers of two from
// MinClass to max: it returns the index i and size MinClass<<i of the
// smallest class holding size bytes (class 0 for any size up to
// MinClass), or -1, 0 for a size above max.
func SizeClass(size, max int64) (int, int64) {
	if size > max {
		return -1, 0
	}
	i := 0
	if size > MinClass {
		i = bits.Len64(uint64(size-1) / MinClass)
	}
	return i, MinClass << i
}

// Huge is the one path of hoard's and lfalloc's blocks above their
// largest class: such a block comes straight from the address space,
// with no header, and is abandoned to it when freed. Huge counts its
// blocks in the allocator's Stats and in a "huge" Inspect row.
type Huge struct {
	index         Index // usable sizes; a freed block's reads 0
	blocks, bytes int64
}

// Alloc serves a request of size bytes from sp, counting it in st.
func (h *Huge) Alloc(c *sim.Ctx, sp *mem.Space, st *alloc.Stats, size int64) mem.Ref {
	usable := (size + align - 1) &^ (align - 1)
	ref := sp.Sbrk(c, usable)
	h.index.Put(ref, usable, 0)
	h.blocks++
	h.bytes += usable
	st.Count(size, usable)
	c.Emit(sim.Event{Kind: sim.EvHeapAlloc, Arg1: usable, Arg2: int64(ref), Arg3: size})
	return ref
}

// Free frees ref, counting it in st, if it is a live huge block, and
// reports whether it was.
func (h *Huge) Free(c *sim.Ctx, st *alloc.Stats, ref mem.Ref) bool {
	usable, ok := h.UsableSize(ref)
	if !ok {
		return false
	}
	h.index.Put(ref, 0, 0)
	h.blocks--
	h.bytes -= usable
	st.Uncount(usable)
	c.Trace(sim.EvHeapFree, "", usable, int64(ref))
	return true
}

// UsableSize returns ref's usable size and whether it is a live huge
// block.
func (h *Huge) UsableSize(ref mem.Ref) (int64, bool) {
	usable, _, _ := h.index.get(ref)
	return usable, usable > 0
}

// AddRow appends the "huge" row to hi while a huge block is live.
func (h *Huge) AddRow(hi *alloc.HeapInfo) {
	if h.blocks > 0 {
		hi.Arenas = append(hi.Arenas, alloc.ArenaInfo{Name: "huge", LiveBlocks: h.blocks, LiveBytes: h.bytes})
	}
}
