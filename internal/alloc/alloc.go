// Package alloc defines the allocator interface every memory-management
// strategy in this repository implements, the statistics they report,
// and a registry so workloads and benchmarks can select strategies by
// name ("serial", "ptmalloc", "hoard", "smartheap").
package alloc

import (
	"fmt"
	"sort"

	"amplify/internal/mem"
	"amplify/internal/sim"
)

// Allocator is a dynamic memory manager running on the simulated
// machine. Implementations charge their internal work (free-list
// traversal, header updates, locking) to the calling thread's context,
// so the virtual cost of an allocation emerges from the algorithm.
type Allocator interface {
	// Name identifies the strategy.
	Name() string
	// Alloc returns a block of at least size bytes (never mem.Nil).
	Alloc(c *sim.Ctx, size int64) mem.Ref
	// Free returns the block at ref to the allocator. ref must have been
	// returned by Alloc and not freed since.
	Free(c *sim.Ctx, ref mem.Ref)
	// UsableSize reports the rounded (usable) size of an allocated block.
	UsableSize(ref mem.Ref) int64
	// Stats returns a snapshot of the allocator's counters.
	Stats() Stats
}

// Stats are the counters every allocator maintains.
type Stats struct {
	Allocs     int64 // Alloc calls
	Frees      int64 // Free calls
	LiveBlocks int64 // currently allocated blocks
	LiveBytes  int64 // currently allocated (usable) bytes
	PeakBytes  int64 // high-water mark of LiveBytes
	ReqBytes   int64 // cumulative bytes callers requested
	GrantBytes int64 // cumulative usable bytes the size classes granted
}

// Count records an allocation: req bytes asked for, n usable bytes
// granted. The req/granted gap accumulates into the internal
// fragmentation of the run.
func (s *Stats) Count(req, n int64) {
	s.Allocs++
	s.LiveBlocks++
	s.LiveBytes += n
	if s.LiveBytes > s.PeakBytes {
		s.PeakBytes = s.LiveBytes
	}
	if req < 1 {
		req = 1
	}
	s.ReqBytes += req
	s.GrantBytes += n
}

// Uncount records a free of n usable bytes.
func (s *Stats) Uncount(n int64) {
	s.Frees++
	s.LiveBlocks--
	s.LiveBytes -= n
}

// Options configure allocator construction.
type Options struct {
	// Arenas overrides the arena/heap count for multi-heap allocators;
	// zero means the strategy's default.
	Arenas int
}

// Factory builds an allocator on an engine and address space.
type Factory func(e *sim.Engine, sp *mem.Space, opt Options) Allocator

var registry = map[string]Factory{}

// Register installs a factory under a strategy name. It is intended to
// be called from package init functions and panics on duplicates.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic("alloc: duplicate registration of " + name)
	}
	registry[name] = f
}

// New builds the named allocator or returns an error listing the
// registered strategies.
func New(name string, e *sim.Engine, sp *mem.Space, opt Options) (Allocator, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("alloc: unknown strategy %q (have %v)", name, Names())
	}
	return f(e, sp, opt), nil
}

// Valid reports whether name is a registered strategy, returning the
// same error New would. CLIs call it right after flag parsing so an
// unknown -alloc name fails fast with the list of valid allocators,
// instead of deep inside a run.
func Valid(name string) error {
	if _, ok := registry[name]; !ok {
		return fmt.Errorf("alloc: unknown strategy %q (have %v)", name, Names())
	}
	return nil
}

// Names lists the registered strategy names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
