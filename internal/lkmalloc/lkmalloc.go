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

// Allocator is the LKmalloc-style allocator.
type Allocator struct{ *heapcore.Set }

// New creates an LKmalloc-style allocator with one heap per processor
// (heaps overrides when positive).
func New(e *sim.Engine, sp *mem.Space, heaps int) *Allocator {
	if heaps <= 0 {
		heaps = e.Processors()
	}
	a := &Allocator{}
	a.Set = heapcore.NewSet(e, sp, "lkmalloc", PathOps, a.lockHeap)
	for i := 0; i < heaps; i++ {
		a.Add(fmt.Sprintf("lkmalloc.heap%d", i), fmt.Sprintf("heap%d", i))
	}
	return a
}

func init() {
	alloc.Register("lkmalloc", func(e *sim.Engine, sp *mem.Space, opt alloc.Options) alloc.Allocator {
		return New(e, sp, opt.Arenas)
	})
}

// lockHeap hashes the calling thread's current processor to a heap and
// locks it. Using the processor keeps allocation local after
// migrations — the property Larson & Krishnan emphasize for
// long-running servers.
func (a *Allocator) lockHeap(c *sim.Ctx) int {
	id := c.CPU() % a.Len()
	a.Mutex(id).Lock(c)
	return id
}
