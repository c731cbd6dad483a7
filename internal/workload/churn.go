package workload

import (
	"amplify/internal/sim"
	"amplify/internal/target"
)

// The churn workload is the contention-scaling scenario the 2001 paper
// could not explore: T threads hammering one size class with
// alloc/write/free cycles, no structure reuse to hide behind. Work is
// fixed per thread (a scaleup shape), so growing the thread count
// grows the total pressure on whatever serializes the allocator —
// mutexes for the lock-based designs, one atomic stack head for the
// lock-free one. The who-wins crossover between those two families is
// the headline of the contention experiment in EXPERIMENTS.md.

// ChurnConfig parameterizes a contention churn run.
type ChurnConfig struct {
	// Threads is the number of worker threads; OpsPerThread is the
	// fixed number of alloc/write/free cycles each performs.
	Threads      int
	OpsPerThread int
	// Size is the request size; every allocation lands in one size
	// class, maximizing collisions on that class's serialization point.
	Size int64
	// Processors simulated; zero means 8.
	Processors int
	// Work is extra per-cycle computation, diluting allocator cost the
	// way application logic would. Zero means pure allocator pressure.
	Work int64
	// Tracer receives the run's event stream; a pool.Watcher tracer is
	// attached to the run's space, allocator and pool runtime first.
	// Host-side only.
	Tracer sim.Tracer
}

func (cfg ChurnConfig) withDefaults() ChurnConfig {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.OpsPerThread <= 0 {
		cfg.OpsPerThread = 100
	}
	if cfg.Size <= 0 {
		cfg.Size = 20
	}
	return cfg
}

// ChurnResult summarizes a churn run: the machine's counters plus the
// run's strategy and configuration.
type ChurnResult struct {
	target.Counters
	Strategy string
	Config   ChurnConfig
}

// ChurnStrategies lists the allocators the contention experiment
// compares: the lock-based field against the lock-free pool.
func ChurnStrategies() []string {
	return []string{"serial", "ptmalloc", "hoard", "lfalloc"}
}

// RunChurn executes the contention churn under the named allocator
// (any registered alloc strategy) and returns its measurements.
func RunChurn(strategy string, cfg ChurnConfig) (ChurnResult, error) {
	cfg = cfg.withDefaults()
	res := ChurnResult{Strategy: strategy, Config: cfg}
	m, err := target.Boot(target.Config{Processors: cfg.Processors, Strategy: strategy, Tracer: cfg.Tracer}, target.Options{})
	if err != nil {
		return res, err
	}
	e, a := m.Engine, m.Alloc

	// A two-sided start gate puts every worker into the churn at the
	// same virtual instant: spawns are staggered by the spawn cost, so
	// without the barrier each thread would finish its (short) churn
	// before the next even started and no two ops would ever collide.
	// WaitGroups charge nothing, so the gate adds no simulated work.
	ready := e.NewWaitGroup()
	gate := e.NewWaitGroup()
	ready.Add(cfg.Threads)
	gate.Add(1)
	churn := func(c *sim.Ctx) {
		ready.Done(c)
		gate.Wait(c)
		for op := 0; op < cfg.OpsPerThread; op++ {
			r := a.Alloc(c, cfg.Size)
			c.Write(uint64(r), 8)
			if cfg.Work > 0 {
				c.Work(cfg.Work)
			}
			a.Free(c, r)
		}
	}
	e.Go("main", func(c *sim.Ctx) {
		for i := 0; i < cfg.Threads; i++ {
			c.Go(workerName(cfg.Tracer, "churn", i), churn)
		}
		ready.Wait(c)
		gate.Done(c)
	})
	res.Counters = m.Run()
	return res, nil
}
