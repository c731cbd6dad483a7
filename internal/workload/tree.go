// Package workload implements the paper's synthetic test programs (§4):
// a configurable number of threads that repeatedly allocate, initialize,
// use, destroy and deallocate complete binary trees, with 100% temporal
// locality — the same structure is created over and over again. Test
// cases 1, 2 and 3 of Table 1 are tree depths 1, 3 and 5 (3, 15 and 63
// objects).
//
// Each tree strategy mirrors one line of the paper's figures:
//
//   - "serial", "ptmalloc", "hoard", "smartheap": the plain program
//     running over the named C-library allocator — every node is
//     malloc'd and free'd individually.
//   - "amplify": the program after the Amplify pre-processor — a
//     structure pool per class, operator new/delete redirected to it,
//     and shadow pointers preserving the child structure across delete.
//   - "handmade": the programmer-written structure pool of §3.1 —
//     thread-private (lock-free) pools whose structures keep their
//     ordinary child pointers intact.
package workload

import (
	"fmt"
	"strconv"

	"amplify/internal/alloc"
	"amplify/internal/handmade"
	"amplify/internal/mem"
	"amplify/internal/pool"
	"amplify/internal/sim"
	"amplify/internal/target"
)

// Node sizes in bytes. The paper's nodes hold two (32-bit) child
// pointers plus dummy data: 20 bytes plain, 28 bytes once the
// pre-processor has added the two shadow pointers.
const (
	PlainNodeSize = 20
	AmpNodeSize   = 28

	offLeft        = 0  // left child pointer
	offRight       = 4  // right child pointer
	offData        = 8  // 12 bytes of dummy data
	offLeftShadow  = 20 // shadow of left (amplified layout only)
	offRightShadow = 24 // shadow of right
)

// Nodes returns the object count of a complete binary tree of the given
// depth (Table 1: depth 1 -> 3, depth 3 -> 15, depth 5 -> 63).
func Nodes(depth int) int { return 1<<(depth+1) - 1 }

// TreeConfig parameterizes a synthetic run.
type TreeConfig struct {
	// Depth of the complete binary trees (test case 1/2/3 = 1/3/5).
	Depth int
	// Trees is the total number of create/use/destroy cycles, divided
	// evenly among the threads (fixed total work, as in a speedup
	// experiment).
	Trees int
	// Threads is the number of worker threads.
	Threads int
	// Processors simulated; zero means 8 (the paper's machines).
	Processors int
	// InitWork and UseWork are extra per-node computation charges for
	// the initialize and use phases, diluting allocator costs the way
	// real application logic would.
	InitWork int64
	UseWork  int64
	// Arenas overrides the arena/heap count of multi-heap allocators
	// (ptmalloc, hoard); zero means the strategy default.
	Arenas int
	// Pool configures the Amplify runtime (pool strategies "amplify"
	// and "objectpool"). SingleThreaded is forced on when Threads == 1,
	// mirroring the pre-processor's lock elision for non-threaded
	// programs, unless KeepPoolLocks is set (the lock-elision ablation
	// needs the locked build of a single-threaded program).
	Pool          pool.Config
	KeepPoolLocks bool
	// Tracer receives the run's event stream (nil disables tracing at
	// the cost of one branch per event site). A pool.Watcher tracer is
	// also attached to the run's space, allocator and pool runtime
	// before execution. Host-side only: never changes makespans.
	Tracer sim.Tracer
}

func (cfg TreeConfig) withDefaults() TreeConfig {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Trees <= 0 {
		cfg.Trees = 1000
	}
	return cfg
}

// Result summarizes a run. The machine's counters come from
// target.Counters; for the pool strategies Alloc counts only pool misses
// (heap fallbacks), and for "handmade" PoolHits/PoolMisses count the
// thread-private pools.
type Result struct {
	target.Counters
	Strategy string
	Config   TreeConfig
	// FailedTryLocks counts failed trylock attempts across all mutexes
	// (the quantity §5.1 reports as "failed lock attempts").
	FailedTryLocks int64
}

// Strategies lists the tree-workload strategy names.
func Strategies() []string {
	return []string{"serial", "ptmalloc", "hoard", "smartheap", "lkmalloc", "lfalloc", "amplify", "objectpool", "handmade"}
}

// RunTree executes the synthetic tree program under the named strategy
// and returns its measurements.
func RunTree(strategy string, cfg TreeConfig) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{Strategy: strategy, Config: cfg}
	under := strategy
	switch strategy {
	case "amplify", "objectpool", "handmade":
		under = "serial" // the pool strategies fall back to the serial heap
	case "serial", "ptmalloc", "hoard", "smartheap", "lkmalloc", "lfalloc":
	default:
		return res, fmt.Errorf("workload: unknown strategy %q (have %v)", strategy, Strategies())
	}
	m, err := target.Boot(target.Config{Processors: cfg.Processors, Strategy: under, Pool: cfg.Pool, Tracer: cfg.Tracer},
		target.Options{ElidePoolLocks: cfg.Threads == 1 && !cfg.KeepPoolLocks, Arenas: cfg.Arenas})
	if err != nil {
		return res, err
	}

	var hits, misses int64
	switch strategy {
	case "amplify":
		np := m.Pools.NewClassPool("Node", AmpNodeSize)
		// The engine runs one simulated thread at a time, so the
		// workers share the shadow table without a lock.
		shadows := new(shadowTable)
		forEachThread(m.Engine, cfg, func(c *sim.Ctx, trees int) {
			amplifiedWorker(c, m.Pools, np, shadows, cfg, trees)
		})
	case "objectpool":
		// §2.1's traditional object pool: every node goes through the
		// class pool individually — no structure reuse, so a 15-node
		// tree costs 15 pool operations instead of Amplify's one.
		np := m.Pools.NewClassPool("Node", PlainNodeSize)
		forEachThread(m.Engine, cfg, func(c *sim.Ctx, trees int) {
			objectPoolWorker(c, np, cfg, trees)
		})
	case "handmade":
		forEachThread(m.Engine, cfg, func(c *sim.Ctx, trees int) {
			h, mi := handmadeWorker(c, m.Alloc, cfg, trees)
			hits += h
			misses += mi
		})
	default:
		forEachThread(m.Engine, cfg, func(c *sim.Ctx, trees int) {
			plainWorker(c, m.Alloc, cfg, trees)
		})
	}
	res.Counters = m.Run()
	if strategy == "handmade" {
		res.PoolHits, res.PoolMisses = hits, misses
	}
	res.FailedTryLocks = failedTryLocks(m.Engine)
	return res, nil
}

// failedTryLocks sums failed trylock attempts over every mutex.
func failedTryLocks(e *sim.Engine) int64 {
	var n int64
	for _, m := range e.Mutexes() {
		n += m.FailedTry
	}
	return n
}

// forEachThread runs a main thread that spawns cfg.Threads workers in
// sequence — each creation charges the spawn cost, so workers start
// staggered exactly as thr_create staggered them on Solaris. The
// stagger matters: it lets each thread build its first structure in a
// private stretch of the heap instead of interleaving warmup
// allocations node-by-node with every other thread.
//
// Every worker runs the same function, which finds its index, and so
// its share of the trees, from its slot: main spawns nothing else, so
// worker i takes the i-th slot after main's. Only a traced run numbers
// the workers' names, which only the trace shows; an untraced spawn
// allocates nothing but the thread.
func forEachThread(e *sim.Engine, cfg TreeConfig, worker func(c *sim.Ctx, trees int)) {
	per := cfg.Trees / cfg.Threads
	extra := cfg.Trees % cfg.Threads
	e.Go("main", func(c *sim.Ctx) {
		first := c.ThreadID() + 1
		run := func(cc *sim.Ctx) {
			trees := per
			if cc.ThreadID()-first < extra {
				trees++
			}
			worker(cc, trees)
		}
		for i := 0; i < cfg.Threads; i++ {
			c.Go(workerName(cfg.Tracer, "worker", i), run)
		}
	})
}

// workerName is the name of the i-th worker a run spawns: prefix and i
// when the run is traced, prefix alone otherwise.
func workerName(tr sim.Tracer, prefix string, i int) string {
	if tr == nil {
		return prefix
	}
	return prefix + strconv.Itoa(i)
}

// maxStackNodes is the largest tree (depth 5, the paper's test case 3)
// whose node list a worker keeps in a stack array rather than on the
// heap.
const maxStackNodes = 63

// nodeList returns a list for n nodes: a slice of buf when n fits in
// it, a fresh slice otherwise.
func nodeList(buf *[maxStackNodes]mem.Ref, n int) []mem.Ref {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]mem.Ref, n)
}

// plainWorker is the original program: every node is allocated from and
// returned to the C-library allocator individually.
func plainWorker(c *sim.Ctx, a alloc.Allocator, cfg TreeConfig, trees int) {
	n := Nodes(cfg.Depth)
	var buf [maxStackNodes]mem.Ref
	refs := nodeList(&buf, n)
	for t := 0; t < trees; t++ {
		// Allocate and initialize every node: operator new per object.
		for i := 0; i < n; i++ {
			refs[i] = a.Alloc(c, PlainNodeSize)
			c.Trace(sim.EvAlloc, "Node", PlainNodeSize, int64(refs[i]))
		}
		initTree(c, refs, PlainNodeSize, cfg.InitWork)
		useTree(c, refs, PlainNodeSize, cfg.UseWork)
		// Destroy: destructor reads the child links, then operator
		// delete frees each node.
		for i := n - 1; i >= 0; i-- {
			c.Read(uint64(refs[i])+offLeft, 8)
			a.Free(c, refs[i])
			c.Trace(sim.EvFree, "Node", int64(refs[i]), 0)
		}
	}
}

// initTree writes both child pointers and the dummy data of every node
// (the constructors running over the fresh structure).
func initTree(c *sim.Ctx, refs []mem.Ref, nodeSize int64, work int64) {
	n := len(refs)
	for i := 0; i < n; i++ {
		if 2*i+1 < n {
			c.Write(uint64(refs[i])+offLeft, 4)
		}
		if 2*i+2 < n {
			c.Write(uint64(refs[i])+offRight, 4)
		}
		c.Write(uint64(refs[i])+offData, 12)
		if work > 0 {
			c.Work(work)
		}
	}
}

// useTree walks the structure reading every node.
func useTree(c *sim.Ctx, refs []mem.Ref, nodeSize int64, work int64) {
	for i := 0; i < len(refs); i++ {
		c.Read(uint64(refs[i]), nodeSize)
		if work > 0 {
			c.Work(work)
		}
	}
}

// shadowTable holds the two shadow pointers of every amplified node,
// keyed by the node: the fields the pre-processor adds to the object.
// One table serves all of a run's workers, so a structure that one
// thread returns to the pool and another takes out keeps its children,
// as it does in the rewritten program.
//
// It is a mem.Table, which the garbage collector never scans. A node
// that goes back to the heap gets null shadow pointers, which is what
// a lookup of a node never stored returns.
type shadowTable = mem.Table[[2]mem.Ref]

// amplifiedWorker is the program as transformed by the Amplify
// pre-processor: the root comes from the class's structure pool and
// the constructors run over it. Each constructor revives a child from
// its shadow pointer with no allocator call at all; a null shadow
// sends the child through the pool as well (which falls back to malloc
// while the pools warm up), and a structure the pool hands out as a
// child brings its own children along. Deletion runs the destructors,
// saves each child in its parent's shadow pointer, and returns only
// the root to the pool.
func amplifiedWorker(c *sim.Ctx, rt *pool.Runtime, np *pool.ClassPool, shadows *shadowTable, cfg TreeConfig, trees int) {
	n := Nodes(cfg.Depth)
	var buf [maxStackNodes]mem.Ref
	refs := nodeList(&buf, n)
	for t := 0; t < trees; t++ {
		refs[0], _ = np.Alloc(c)
		// Each constructor runs placement new on its two children.
		for p := 0; 2*p+1 < n; p++ {
			sh, _ := shadows.Get(refs[p])
			for side, off := range [2]uint64{offLeftShadow, offRightShadow} {
				i := 2*p + 1 + side
				if sh[side] != mem.Nil {
					c.Read(uint64(refs[p])+off, 4)
					refs[i] = sh[side]
				} else {
					refs[i], _ = np.Alloc(c)
				}
			}
		}
		initTree(c, refs, AmpNodeSize, cfg.InitWork)
		useTree(c, refs, AmpNodeSize, cfg.UseWork)
		// Destroy: children are logically deleted — destructor call plus
		// a shadow-pointer store in the parent — and the root goes back
		// to its pool.
		for i := n - 1; i >= 1; i-- {
			parent := refs[(i-1)/2]
			off := uint64(offLeftShadow)
			if i%2 == 0 {
				off = offRightShadow
			}
			c.Read(uint64(refs[i])+offData, 4) // destructor touches the object
			c.Write(uint64(parent)+off, 4)     // shadow = child
		}
		for p := 0; 2*p+1 < n; p++ {
			shadows.Put(refs[p], [2]mem.Ref{refs[2*p+1], refs[2*p+2]})
		}
		if !np.Free(c, refs[0]) {
			// Pool at its MaxObjects limit: the root went back to the
			// heap, so the generated code releases the child structure
			// through the shadow pointers too.
			for i := 1; i < n; i++ {
				rt.Underlying().Free(c, refs[i])
			}
			for _, r := range refs {
				shadows.Put(r, [2]mem.Ref{})
			}
		}
	}
}

// objectPoolWorker pools every node individually (a traditional object
// pool, §2.1): calls to the memory manager are avoided after warmup,
// but every single object still costs a pool operation.
func objectPoolWorker(c *sim.Ctx, np *pool.ClassPool, cfg TreeConfig, trees int) {
	n := Nodes(cfg.Depth)
	var buf [maxStackNodes]mem.Ref
	refs := nodeList(&buf, n)
	for t := 0; t < trees; t++ {
		for i := 0; i < n; i++ {
			refs[i], _ = np.Alloc(c)
		}
		initTree(c, refs, PlainNodeSize, cfg.InitWork)
		useTree(c, refs, PlainNodeSize, cfg.UseWork)
		for i := n - 1; i >= 0; i-- {
			c.Read(uint64(refs[i])+offLeft, 8)
			np.Free(c, refs[i])
		}
	}
}

// handmadeWorker is §3.1's programmer-written pool: one pool per
// thread, no locks, whole structures pooled with their ordinary child
// pointers kept intact (no shadow fields, so nodes stay 20 bytes).
func handmadeWorker(c *sim.Ctx, under alloc.Allocator, cfg TreeConfig, trees int) (hits, misses int64) {
	n := Nodes(cfg.Depth)
	metaAddr := uint64(1)<<41 + uint64(c.ThreadID())*128
	p := handmade.New(under, PlainNodeSize, metaAddr)
	structures := make(map[mem.Ref][]mem.Ref)
	for t := 0; t < trees; t++ {
		root, reused := p.Alloc(c)
		var refs []mem.Ref
		if reused {
			refs = structures[root]
			// The intact child pointers are simply read back.
			for i := 0; i < n; i++ {
				if 2*i+1 < n {
					c.Read(uint64(refs[i])+offLeft, 4)
				}
			}
		} else {
			refs = make([]mem.Ref, n)
			refs[0] = root
			for i := 1; i < n; i++ {
				refs[i] = under.Alloc(c, PlainNodeSize)
			}
			structures[root] = refs
		}
		initTree(c, refs, PlainNodeSize, cfg.InitWork)
		useTree(c, refs, PlainNodeSize, cfg.UseWork)
		// destroy(): init()-style cleanup, then the root returns to the
		// thread's pool. Child objects are not touched at all.
		p.Free(c, root)
	}
	return p.Hits, p.Misses
}
