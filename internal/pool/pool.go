// Package pool implements the Amplify runtime: the generalized structure
// pools of §3.2 of the paper. Every class gets its own pool; operator
// new is redirected to the pool's alloc (which pops a whole previously
// used structure from a free list) and operator delete inserts the root
// object into the free list, keeping its child pointers intact via
// shadow pointers. Only when a pool is empty does the runtime fall back
// to the underlying dynamic memory manager.
//
// The package also implements every memory-consumption limiter the
// paper discusses: a maximum number of objects per pool, a maximum size
// for shadowed memory, the shadow realloc rule for data-type arrays
// ("reuse if the request is no larger than the shadow block but at
// least half of it", §5.2) and lock elision when the program is
// single-threaded (the cause of the 1→2 thread dip in Figure 4).
package pool

import (
	"fmt"

	"amplify/internal/alloc"
	"amplify/internal/mem"
	"amplify/internal/sim"
)

// PathOps is the bookkeeping charge of a pool hit. Amplify's critical
// sections are "very short compared to ptmalloc" (§5.1).
const PathOps = 6

// Config parameterizes the runtime.
type Config struct {
	// Shards is the number of sub-pools each class pool is spread over
	// (the ptmalloc-inspired spreading of §3.2). Zero means one shard
	// per simulated processor.
	Shards int
	// MaxObjects bounds the number of structures retained per shard;
	// excess structures are released to the underlying allocator
	// (§5.2: "a maximum number of objects for each pool"). Zero means
	// unlimited.
	MaxObjects int
	// MaxShadowBytes bounds the size of a shadowed array block; larger
	// blocks are freed normally (§5.2: "a maximum size for shadowed
	// memory"). Zero means unlimited.
	MaxShadowBytes int64
	// SingleThreaded elides all pool locks, as the pre-processor does
	// when it detects a non-threaded program (§5.1).
	SingleThreaded bool
	// AlwaysReuseShadow disables the half-size lower bound of the
	// shadow realloc rule (for the ablation benchmark).
	AlwaysReuseShadow bool
	// StealShards lets an allocation whose own shard is empty try the
	// other shards (with trylock) before falling back to the heap —
	// the ptmalloc-style failover of §3.2. Without it, pipelines where
	// one thread allocates and another frees never reuse structures:
	// they accumulate in the freeing thread's shard.
	StealShards bool
}

func (c Config) withDefaults(e *sim.Engine) Config {
	if c.Shards <= 0 {
		// Twice the processor count, like ptmalloc's arena headroom:
		// enough pools that threads seldom collide even when the
		// machine is oversubscribed.
		c.Shards = 2 * e.Processors()
	}
	return c
}

// Runtime is the per-program Amplify runtime: a set of class pools over
// an underlying allocator.
type Runtime struct {
	e           *sim.Engine
	cfg         Config
	under       alloc.Allocator
	pools       []*ClassPool
	metaCounter uint64
	frame       *FrameRegion

	// ShadowReuses counts array allocations served by reusing shadowed
	// memory; ShadowMisses counts those that had to reallocate.
	ShadowReuses int64
	ShadowMisses int64
}

// NewRuntime creates an Amplify runtime over the given allocator.
func NewRuntime(e *sim.Engine, under alloc.Allocator, cfg Config) *Runtime {
	return &Runtime{e: e, cfg: cfg.withDefaults(e), under: under}
}

// Underlying returns the allocator pools fall back to.
func (r *Runtime) Underlying() alloc.Allocator { return r.under }

// Config returns the runtime configuration.
func (r *Runtime) Config() Config { return r.cfg }

// Pools returns every class pool registered so far.
func (r *Runtime) Pools() []*ClassPool { return r.pools }

// ClassPool is the structure pool of one class, spread over shards to
// avoid lock contention.
type ClassPool struct {
	rt    *Runtime
	class string
	size  int64
	sh    []*shard
	// private marks lock-free thread-private pools (frame.go): one
	// unlocked shard per thread, grown on demand.
	private  bool
	metaBase uint64

	// Hits counts allocations served from a free list; Misses counts
	// fallbacks to the underlying allocator.
	Hits   int64
	Misses int64
	// Released counts structures returned to the underlying allocator
	// because a shard was at its MaxObjects limit.
	Released int64
	// Steals counts hits served from another thread's shard
	// (Config.StealShards).
	Steals int64
	// Reserved counts structures pre-allocated by Reserve.
	Reserved int64
}

type shard struct {
	lock     *sim.Mutex
	free     []mem.Ref
	metaAddr uint64
}

// NewClassPool registers a pool for a class whose instances occupy size
// bytes (including the shadow fields the pre-processor added).
//
// The generated pool class lays its static members out the way a C++
// compiler would: each shard contributes a free-list head pointer and a
// count word (16 bytes) to one static array, so four shards share each
// cache line and every pool operation writes that line. The mutexes are
// padded onto lines of their own, a standard precaution. The shared
// head lines are the false sharing the paper identifies as the real
// scaling limit in test case 1, where pool operations dominate because
// structures are shallow; in deep-structure cases a pool operation
// happens once per structure and the effect vanishes.
func (r *Runtime) NewClassPool(class string, size int64) *ClassPool {
	p := &ClassPool{rt: r, class: class, size: size}
	base := r.metaRegion()
	for i := 0; i < r.cfg.Shards; i++ {
		var lk *sim.Mutex
		if !r.cfg.SingleThreaded {
			lockAddr := base + 256 + uint64(i)*64
			lk = r.e.NewMutexAt(fmt.Sprintf("pool.%s.%d", class, i), lockAddr)
		}
		p.sh = append(p.sh, &shard{lock: lk, metaAddr: base + uint64(i)*16})
	}
	r.pools = append(r.pools, p)
	return p
}

// metaRegion reserves a static-data region for one pool class. Pools of
// different classes are kept a page apart and never share lines.
func (r *Runtime) metaRegion() uint64 {
	r.metaCounter++
	return 1<<40 + r.metaCounter*4096
}

// Class reports the pool's class name.
func (p *ClassPool) Class() string { return p.class }

// Size reports the instance size the pool serves.
func (p *ClassPool) Size() int64 { return p.size }

// shardFor spreads threads over shards. Unlike ptmalloc's
// failed-lock-driven spreading, Amplify observed so few failed locks
// that static spreading by thread id suffices (§5.1 discusses exactly
// this observation).
func (p *ClassPool) shardFor(c *sim.Ctx) *shard {
	if p.private {
		// Thread-private mode: exactly one unlocked shard per thread,
		// grown on demand so late-spawned threads get their own.
		tid := c.ThreadID()
		for tid >= len(p.sh) {
			p.sh = append(p.sh, &shard{metaAddr: p.metaBase + uint64(len(p.sh))*16})
		}
		return p.sh[tid]
	}
	return p.sh[c.ThreadID()%len(p.sh)]
}

// Alloc pops a structure from the pool, falling back to the underlying
// allocator when the free list is empty. reused reports whether the
// returned memory held a structure of this class before (so its shadow
// pointers are meaningful).
func (p *ClassPool) Alloc(c *sim.Ctx) (ref mem.Ref, reused bool) {
	c.Work(PathOps)
	s := p.shardFor(c)
	if s.lock != nil {
		s.lock.Lock(c)
	}
	c.Read(s.metaAddr, 8)
	if n := len(s.free); n > 0 {
		ref = s.free[n-1]
		s.free = s.free[:n-1]
		c.Read(uint64(ref), 8)
		c.Write(s.metaAddr, 8)
		p.Hits++
		if s.lock != nil {
			s.lock.Unlock(c)
		}
		c.Trace(sim.EvPoolHit, p.class, p.size, int64(ref))
		return ref, true
	}
	if s.lock != nil {
		s.lock.Unlock(c)
	}
	// A pre-sized pool (Reserve) treats the reservation as shared
	// capacity: the structures were spread round-robin over the shards,
	// so a thread whose own shard ran dry checks the others (with the
	// steal path's full lock and metadata charges) before paying the
	// underlying allocator.
	if (p.rt.cfg.StealShards || p.Reserved > 0) && !p.private {
		if ref, ok := p.steal(c, s); ok {
			p.Hits++
			p.Steals++
			c.Emit(sim.Event{Kind: sim.EvPoolHit, Detail: p.class, Arg1: p.size, Arg2: int64(ref), Arg3: 1})
			return ref, true
		}
	}
	p.Misses++
	ref = p.rt.under.Alloc(c, p.size)
	c.Trace(sim.EvPoolMiss, p.class, p.size, int64(ref))
	return ref, false
}

// steal scans the other shards for a pooled structure, taking each
// shard's lock with trylock so a busy shard is skipped rather than
// waited for.
func (p *ClassPool) steal(c *sim.Ctx, own *shard) (mem.Ref, bool) {
	for _, s := range p.sh {
		if s == own {
			continue
		}
		if s.lock != nil && !s.lock.TryLock(c) {
			continue
		}
		c.Read(s.metaAddr, 8)
		if n := len(s.free); n > 0 {
			ref := s.free[n-1]
			s.free = s.free[:n-1]
			c.Read(uint64(ref), 8)
			c.Write(s.metaAddr, 8)
			if s.lock != nil {
				s.lock.Unlock(c)
			}
			return ref, true
		}
		if s.lock != nil {
			s.lock.Unlock(c)
		}
	}
	return mem.Nil, false
}

// Free pushes the structure rooted at ref back onto the pool's free
// list and reports whether it was pooled. Child objects must already
// have been logically destroyed; their memory stays reachable through
// the root's shadow pointers, which is the whole point of the method.
//
// When the shard is at its MaxObjects limit the root is instead
// released to the underlying allocator and Free returns false; the
// caller owns releasing the shadowed child structure (the generated
// code walks the shadow pointers to do so).
func (p *ClassPool) Free(c *sim.Ctx, ref mem.Ref) bool {
	c.Work(PathOps)
	s := p.shardFor(c)
	if s.lock != nil {
		s.lock.Lock(c)
	}
	if p.rt.cfg.MaxObjects > 0 && len(s.free) >= p.rt.cfg.MaxObjects {
		if s.lock != nil {
			s.lock.Unlock(c)
		}
		p.Released++
		p.rt.under.Free(c, ref)
		c.Trace(sim.EvPoolRelease, p.class, p.size, 0)
		return false
	}
	c.Write(uint64(ref), 8)
	c.Write(s.metaAddr, 8)
	s.free = append(s.free, ref)
	if s.lock != nil {
		s.lock.Unlock(c)
	}
	return true
}

// FreeCount reports how many structures are pooled across shards.
func (p *ClassPool) FreeCount() int {
	n := 0
	for _, s := range p.sh {
		n += len(s.free)
	}
	return n
}

// Info is a point-in-time snapshot of one class pool: the free-list
// depth per shard, the bytes the pool retains, and the hit/miss
// counters from which the reuse hit rate follows.
type Info struct {
	Class         string  `json:"class"`
	Size          int64   `json:"size"`
	Retained      int64   `json:"retained"`
	RetainedBytes int64   `json:"retained_bytes"`
	ShardDepths   []int64 `json:"shard_depths"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Steals        int64   `json:"steals"`
	Released      int64   `json:"released"`
}

// Inspect snapshots every class pool. Host-side only: it charges no
// simulated work, so observers may call it mid-run.
func (r *Runtime) Inspect() []Info {
	out := make([]Info, 0, len(r.pools))
	for _, p := range r.pools {
		pi := Info{
			Class: p.class, Size: p.size,
			Hits: p.Hits, Misses: p.Misses, Steals: p.Steals, Released: p.Released,
		}
		for _, s := range p.sh {
			n := int64(len(s.free))
			pi.ShardDepths = append(pi.ShardDepths, n)
			pi.Retained += n
		}
		pi.RetainedBytes = pi.Retained * p.size
		out = append(out, pi)
	}
	return out
}

// ShadowRealloc implements the BGw extension of §5.2: data-type arrays
// (char[], int[]) belonging to an amplified parent object are shadowed
// instead of freed, and a later allocation reuses the shadow block when
// the requested size is no larger than the shadow block but no smaller
// than half of it — bounding worst-case consumption at twice the live
// size. It returns the block to use and its usable size.
//
// shadowRef is the currently shadowed block (mem.Nil if none) and
// shadowSize its usable size. A shadow block that cannot be reused is
// freed to the underlying allocator.
func (r *Runtime) ShadowRealloc(c *sim.Ctx, shadowRef mem.Ref, shadowSize, want int64) (mem.Ref, int64) {
	c.Work(PathOps)
	if shadowRef != mem.Nil {
		lower := shadowSize / 2
		if r.cfg.AlwaysReuseShadow {
			lower = 0
		}
		if want <= shadowSize && want >= lower {
			r.ShadowReuses++
			c.Trace(sim.EvShadowReuse, "", want, shadowSize)
			return shadowRef, shadowSize
		}
		r.under.Free(c, shadowRef)
	}
	r.ShadowMisses++
	c.Trace(sim.EvShadowMiss, "", want, shadowSize)
	ref := r.under.Alloc(c, want)
	return ref, r.under.UsableSize(ref)
}

// ShadowSave decides what happens to an array block when its owner is
// deleted: blocks within the MaxShadowBytes limit are kept as shadows
// (returned true); larger blocks are freed normally (§5.2).
func (r *Runtime) ShadowSave(c *sim.Ctx, ref mem.Ref, size int64) bool {
	if r.cfg.MaxShadowBytes > 0 && size > r.cfg.MaxShadowBytes {
		r.under.Free(c, ref)
		return false
	}
	return true
}
