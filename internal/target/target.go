// Package target is the simulated machine both MiniCC engines run on:
// one configuration, one boot (simulator, address space, C-library
// allocator and Amplify pool runtime) and one result harvest. The
// engines (internal/vm's bytecode loop and internal/interp's tree
// walker) bring only their execution, so every Result field means the
// same thing on both.
package target

import (
	"amplify/internal/alloc"
	"amplify/internal/mem"
	"amplify/internal/pool"
	"amplify/internal/sim"

	_ "amplify/internal/hoard"
	_ "amplify/internal/lfalloc"
	_ "amplify/internal/lkmalloc"
	_ "amplify/internal/ptmalloc"
	_ "amplify/internal/serial"
	_ "amplify/internal/smartheap"
)

// Config parameterizes a run.
type Config struct {
	// Processors simulated; zero means 8.
	Processors int
	// Strategy is the C-library allocator underneath (alloc.Names);
	// empty means "serial".
	Strategy string
	// Pool configures the Amplify runtime used by pre-processed
	// programs. SingleThreaded is set automatically for programs that
	// never spawn.
	Pool pool.Config
	// MaxSteps bounds executed work (guards against non-terminating
	// inputs); zero means 50 million.
	MaxSteps int64
	// Tracer receives the run's event stream. A tracer implementing
	// pool.Watcher is also attached to the run's address space,
	// allocator and pool runtime before execution. Observation is
	// host-side only — a tracer never changes makespans.
	Tracer sim.Tracer
}

// Result summarizes a run.
type Result struct {
	// Output is everything print() wrote, in virtual-time order.
	Output string
	// ExitCode is main's return value.
	ExitCode int64
	// Makespan is the completion time in virtual cycles.
	Makespan int64
	Sim      sim.Stats
	Alloc    alloc.Stats
	// PoolHits/PoolMisses aggregate over all class pools (pre-processed
	// programs only).
	PoolHits     int64
	PoolMisses   int64
	ShadowReuses int64
	// PlacementFallbacks counts placement-new reorganizations (§3.2's
	// non-identical-structure path: the shadow object was still live).
	PlacementFallbacks int64
	Footprint          int64
	// Heap is the allocator's post-run introspection snapshot
	// (fragmentation, free-list state, per-arena occupancy).
	Heap alloc.HeapInfo
}

// Machine is one booted run: the configuration with its defaults
// applied and the layers an engine executes against.
type Machine struct {
	Config
	Engine *sim.Engine
	Space  *mem.Space
	Alloc  alloc.Allocator
	Pools  *pool.Runtime
}

// Boot builds the machine for one run of a program. Programs that never
// spawn (usesThreads false) get a single-threaded pool runtime.
func Boot(cfg Config, usesThreads bool) (*Machine, error) {
	if cfg.Processors <= 0 {
		cfg.Processors = 8
	}
	if cfg.Strategy == "" {
		cfg.Strategy = "serial"
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 50_000_000
	}
	m := &Machine{Config: cfg, Engine: sim.New(sim.Config{Processors: cfg.Processors, Tracer: cfg.Tracer}), Space: mem.NewSpace()}
	var err error
	if m.Alloc, err = alloc.New(cfg.Strategy, m.Engine, m.Space, alloc.Options{}); err != nil {
		return nil, err
	}
	pcfg := cfg.Pool
	pcfg.SingleThreaded = pcfg.SingleThreaded || !usesThreads
	m.Pools = pool.NewRuntime(m.Engine, m.Alloc, pcfg)
	pool.Watch(cfg.Tracer, m.Space, m.Alloc, m.Pools)
	return m, nil
}

// Run simulates until every thread has finished and harvests the
// machine's counters. The engine fills in Output, ExitCode and
// PlacementFallbacks.
func (m *Machine) Run() Result {
	res := Result{
		Makespan:     m.Engine.Run(),
		Sim:          m.Engine.Stats(),
		Alloc:        m.Alloc.Stats(),
		ShadowReuses: m.Pools.ShadowReuses,
		Footprint:    m.Space.Footprint(),
	}
	if insp, ok := m.Alloc.(alloc.Inspector); ok {
		res.Heap = insp.Inspect()
	}
	for _, pl := range m.Pools.Pools() {
		res.PoolHits += pl.Hits
		res.PoolMisses += pl.Misses
	}
	return res
}
