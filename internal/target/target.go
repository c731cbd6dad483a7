// Package target is the simulated machine every run boots: one
// configuration, one boot (simulator, address space, C-library
// allocator and Amplify pool runtime) and one harvest of the machine's
// counters. The MiniCC engine (internal/vm's bytecode loop), the
// tree-walking test oracle it is checked against (internal/interp) and
// the Go workload runners (internal/workload's tree, churn and replay,
// internal/bgw's BGw and pipeline) bring only their threads, so every
// Counters field means the same thing on all of them.
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
	// programs and pool-based workloads.
	Pool pool.Config
	// MaxSteps bounds executed work of the MiniCC engines (guards
	// against non-terminating inputs); zero means 50 million. The
	// budget is shared by all threads of a program and counted in the
	// order the simulator executes instructions. An untraced run that
	// is not oversubscribed lets threads run ahead through private
	// work (sim.Ctx.Compute), so in a threaded program the instruction
	// the error names can differ from a traced run's; it is the same on
	// every run with the same configuration. A single-threaded program
	// trips at the same instruction either way.
	MaxSteps int64
	// Tracer receives the run's event stream. A tracer implementing
	// pool.Watcher is also attached to the run's address space,
	// allocator and pool runtime before execution. Observation is
	// host-side only — a tracer never changes makespans.
	Tracer sim.Tracer
}

// Options are the boot settings only some runs use.
type Options struct {
	// ElidePoolLocks builds a single-threaded pool runtime: the
	// pre-processor's lock elision for programs that never spawn
	// (§5.1).
	ElidePoolLocks bool
	// Arenas overrides the arena/heap count of multi-heap allocators;
	// zero means the strategy default.
	Arenas int
}

// Counters are the machine's counters after a run, the core of every
// run's result.
type Counters struct {
	// Makespan is the completion time of the slowest thread in virtual
	// cycles.
	Makespan int64
	// Sim aggregates lock, cache, channel and atomic statistics.
	Sim sim.Stats
	// Alloc are the C-library allocator's counters; under a pool
	// runtime they count only pool misses (heap fallbacks).
	Alloc alloc.Stats
	// Footprint is the simulated process memory consumption in bytes.
	Footprint int64
	// Heap is the allocator's post-run introspection snapshot
	// (fragmentation, free-list state, per-arena occupancy).
	Heap alloc.HeapInfo
	// PoolHits/PoolMisses aggregate over all class pools; ShadowReuses
	// counts array allocations served from shadow memory.
	PoolHits     int64
	PoolMisses   int64
	ShadowReuses int64
}

// Result summarizes a MiniCC program run: the machine's counters plus
// what the engine reports.
type Result struct {
	Counters
	// Output is everything print() wrote, in virtual-time order.
	Output string
	// ExitCode is main's return value.
	ExitCode int64
	// PlacementFallbacks counts placement-new reorganizations (§3.2's
	// non-identical-structure path: the shadow object was still live).
	PlacementFallbacks int64
}

// Machine is one booted run: the configuration with its defaults
// applied and the layers a run executes against.
type Machine struct {
	Config
	Engine *sim.Engine
	Space  *mem.Space
	Alloc  alloc.Allocator
	Pools  *pool.Runtime
}

// Boot builds the machine for one run.
func Boot(cfg Config, opt Options) (*Machine, error) {
	if cfg.Strategy == "" {
		cfg.Strategy = "serial"
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 50_000_000
	}
	e := sim.New(sim.Config{Processors: cfg.Processors, Tracer: cfg.Tracer})
	cfg.Processors = e.Processors()
	m := &Machine{Config: cfg, Engine: e, Space: mem.NewSpace()}
	var err error
	if m.Alloc, err = alloc.New(cfg.Strategy, e, m.Space, alloc.Options{Arenas: opt.Arenas}); err != nil {
		return nil, err
	}
	pcfg := cfg.Pool
	pcfg.SingleThreaded = pcfg.SingleThreaded || opt.ElidePoolLocks
	m.Pools = pool.NewRuntime(e, m.Alloc, pcfg)
	pool.Watch(cfg.Tracer, m.Space, m.Alloc, m.Pools)
	return m, nil
}

// Run simulates until every thread has finished and harvests the
// machine's counters.
func (m *Machine) Run() Counters {
	st := Counters{
		Makespan:     m.Engine.Run(),
		Sim:          m.Engine.Stats(),
		Alloc:        m.Alloc.Stats(),
		Footprint:    m.Space.Footprint(),
		ShadowReuses: m.Pools.ShadowReuses,
	}
	if insp, ok := m.Alloc.(alloc.Inspector); ok {
		st.Heap = insp.Inspect()
	}
	for _, pl := range m.Pools.Pools() {
		st.PoolHits += pl.Hits
		st.PoolMisses += pl.Misses
	}
	return st
}
