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

// Allocator is the single-lock baseline allocator: a heap set of one.
type Allocator struct{ *heapcore.Set }

// New creates the baseline allocator.
func New(e *sim.Engine, sp *mem.Space) *Allocator {
	a := &Allocator{}
	a.Set = heapcore.NewSet(e, sp, "serial", PathOps, func(c *sim.Ctx) int {
		a.Mutex(0).Lock(c)
		return 0
	})
	a.Add("serial.global", "")
	return a
}

func init() {
	alloc.Register("serial", func(e *sim.Engine, sp *mem.Space, opt alloc.Options) alloc.Allocator {
		return New(e, sp)
	})
}
