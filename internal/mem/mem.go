// Package mem provides the simulated address space shared by all
// allocators. Addresses (Refs) are plain 64-bit values: the simulation
// never stores payload bytes, it charges cache traffic for accesses to
// these addresses through sim.Ctx, while structural metadata (block
// sizes, object graphs) is kept on the Go side by each subsystem.
package mem

import "amplify/internal/sim"

// Ref is a simulated memory address. Zero is the null reference.
type Ref uint64

// Nil is the null reference.
const Nil Ref = 0

// PageSize is the granularity of Sbrk extensions.
const PageSize = 8192

// Space is a simulated process address space with a bump break pointer.
// It is shared by every allocator in one simulation; the engine's
// coroutine scheduler runs one simulated thread at a time, so access
// is single-threaded.
type Space struct {
	brk  uint64
	base uint64
}

// NewSpace returns an address space whose break starts above the null
// page.
func NewSpace() *Space {
	const base = 1 << 16
	return &Space{brk: base, base: base}
}

// Sbrk extends the address space by at least n bytes (rounded up to
// whole pages), charges the system-call cost to the calling thread, and
// returns the start of the new region.
func (s *Space) Sbrk(c *sim.Ctx, n int64) Ref {
	if n <= 0 {
		panic("mem: Sbrk of non-positive size")
	}
	pages := (uint64(n) + PageSize - 1) / PageSize
	r := Ref(s.brk)
	s.brk += pages * PageSize
	if c != nil {
		c.Sbrk()
	}
	return r
}

// Footprint reports the total bytes ever obtained from the space — the
// simulated process's memory consumption.
func (s *Space) Footprint() int64 { return int64(s.brk - s.base) }
