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

// Allocator is the multi-arena allocator: a heap set that grows an
// arena at a time.
type Allocator struct {
	*heapcore.Set
	max int
	// affinity[slot] is one plus the index of the arena thread slot
	// moved to last, zero while it has never left its default arena.
	affinity []int32
}

// New creates a ptmalloc-style allocator with one initial arena.
func New(e *sim.Engine, sp *mem.Space) *Allocator {
	a := &Allocator{max: MaxArenasPerCPU * e.Processors()}
	a.Set = heapcore.NewSet(e, sp, "ptmalloc", PathOps, a.lockArena)
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
	id := a.Len()
	return a.Add(fmt.Sprintf("ptmalloc.arena%d", id), fmt.Sprintf("arena%d", id))
}

// Arenas reports how many arenas exist (tests observe arena growth).
func (a *Allocator) Arenas() int { return a.Len() }

// lockArena implements the arena-selection protocol and returns the
// locked arena's index. It reads the arena count again after every
// failed TryLock: the try yields, and other threads may add arenas
// meanwhile.
func (a *Allocator) lockArena(c *sim.Ctx) int {
	tid := c.ThreadID()
	pref := tid % a.Len()
	if tid < len(a.affinity) && a.affinity[tid] != 0 {
		pref = int(a.affinity[tid]) - 1
	}
	// Fast path: the last-used arena.
	if a.Mutex(pref).TryLock(c) {
		return pref
	}
	// Spin over the other arenas.
	for i := 1; i < a.Len(); i++ {
		id := (pref + i) % a.Len()
		if a.Mutex(id).TryLock(c) {
			a.setAffinity(tid, id)
			return id
		}
	}
	// All busy: grow if allowed, otherwise block on the preferred arena.
	if a.Len() < a.max {
		id := a.addArena()
		a.Mutex(id).Lock(c)
		a.setAffinity(tid, id)
		return id
	}
	a.Mutex(pref).Lock(c)
	return pref
}

// setAffinity records arena id as thread slot tid's preferred arena.
func (a *Allocator) setAffinity(tid, id int) {
	if tid >= len(a.affinity) {
		a.affinity = append(a.affinity, make([]int32, tid+1-len(a.affinity))...)
	}
	a.affinity[tid] = int32(id + 1)
}
