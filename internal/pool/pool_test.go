package pool

import (
	"testing"
	"testing/quick"

	"amplify/internal/alloc"
	"amplify/internal/mem"
	"amplify/internal/sim"

	_ "amplify/internal/serial"
)

func newRuntime(t *testing.T, procs int, cfg Config) (*sim.Engine, *Runtime) {
	t.Helper()
	e := sim.New(sim.Config{Processors: procs})
	sp := mem.NewSpace()
	under, err := alloc.New("serial", e, sp, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e, NewRuntime(e, under, cfg)
}

func TestPoolHitAfterFree(t *testing.T) {
	e, rt := newRuntime(t, 2, Config{})
	p := rt.NewClassPool("Node", 28)
	e.Go("w", func(c *sim.Ctx) {
		r1, reused := p.Alloc(c)
		if reused {
			t.Error("first alloc cannot be a reuse")
		}
		p.Free(c, r1)
		r2, reused := p.Alloc(c)
		if !reused {
			t.Error("second alloc should reuse the pooled structure")
		}
		if r1 != r2 {
			t.Errorf("got %#x, want reuse of %#x", uint64(r2), uint64(r1))
		}
	})
	e.Run()
	if p.Hits != 1 || p.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", p.Hits, p.Misses)
	}
}

func TestPoolsPerClassAreIndependent(t *testing.T) {
	e, rt := newRuntime(t, 2, Config{})
	pa := rt.NewClassPool("A", 28)
	pb := rt.NewClassPool("B", 28)
	e.Go("w", func(c *sim.Ctx) {
		ra, _ := pa.Alloc(c)
		pa.Free(c, ra)
		rb, reused := pb.Alloc(c)
		if reused {
			t.Error("pool B must not serve pool A's structure")
		}
		_ = rb
	})
	e.Run()
	if pa.FreeCount() != 1 || pb.FreeCount() != 0 {
		t.Fatalf("free counts = %d/%d", pa.FreeCount(), pb.FreeCount())
	}
}

func TestShardSpreadingReducesSharing(t *testing.T) {
	// Two threads on two shards must use different free lists.
	e, rt := newRuntime(t, 2, Config{Shards: 2})
	p := rt.NewClassPool("Node", 28)
	refs := make([]mem.Ref, 2)
	for i := 0; i < 2; i++ {
		e.Go("w", func(c *sim.Ctx) {
			r, _ := p.Alloc(c)
			p.Free(c, r)
			refs[c.ThreadID()], _ = p.Alloc(c)
		})
	}
	e.Run()
	if refs[0] == refs[1] {
		t.Fatal("threads on different shards shared a structure")
	}
	if p.Hits != 2 {
		t.Fatalf("hits = %d, want 2", p.Hits)
	}
}

func TestSingleThreadedElidesLocks(t *testing.T) {
	e, rt := newRuntime(t, 2, Config{SingleThreaded: true})
	p := rt.NewClassPool("Node", 28)
	e.Go("w", func(c *sim.Ctx) {
		r, _ := p.Alloc(c)
		p.Free(c, r)
		p.Alloc(c)
	})
	e.Run()
	for _, s := range p.sh {
		if s.lock != nil {
			t.Fatal("single-threaded pool created locks")
		}
	}
}

func TestSingleThreadedIsCheaper(t *testing.T) {
	run := func(single bool) int64 {
		e, rt := newRuntime(t, 2, Config{SingleThreaded: single, Shards: 1})
		p := rt.NewClassPool("Node", 28)
		e.Go("w", func(c *sim.Ctx) {
			for i := 0; i < 500; i++ {
				r, _ := p.Alloc(c)
				p.Free(c, r)
			}
		})
		return e.Run()
	}
	locked, elided := run(false), run(true)
	if elided >= locked {
		t.Fatalf("lock elision not cheaper: elided=%d locked=%d", elided, locked)
	}
}

func TestMaxObjectsReleasesToUnderlying(t *testing.T) {
	e, rt := newRuntime(t, 2, Config{Shards: 1, MaxObjects: 3})
	p := rt.NewClassPool("Node", 28)
	e.Go("w", func(c *sim.Ctx) {
		var refs []mem.Ref
		for i := 0; i < 8; i++ {
			r, _ := p.Alloc(c)
			refs = append(refs, r)
		}
		for _, r := range refs {
			p.Free(c, r)
		}
	})
	e.Run()
	if p.FreeCount() != 3 {
		t.Fatalf("pooled = %d, want MaxObjects 3", p.FreeCount())
	}
	if p.Released != 5 {
		t.Fatalf("released = %d, want 5", p.Released)
	}
	if live := rt.Underlying().Stats().LiveBlocks; live != 3 {
		t.Fatalf("underlying live blocks = %d, want only the pooled 3", live)
	}
}

func TestShadowReallocReuseRule(t *testing.T) {
	e, rt := newRuntime(t, 2, Config{})
	e.Go("w", func(c *sim.Ctx) {
		// Establish a shadow block of usable size 128.
		ref, usable := rt.ShadowRealloc(c, mem.Nil, 0, 128)
		if usable < 128 {
			t.Fatalf("usable = %d", usable)
		}
		// Request within [half, full]: reuse.
		r2, u2 := rt.ShadowRealloc(c, ref, usable, usable/2)
		if r2 != ref || u2 != usable {
			t.Error("request of exactly half must reuse the shadow block")
		}
		// Request below half: new block (prevents unbounded waste).
		r3, _ := rt.ShadowRealloc(c, ref, usable, usable/2-1)
		if r3 == ref {
			t.Error("request below half must not reuse the shadow block")
		}
		// Request above the shadow size: new block.
		r4, _ := rt.ShadowRealloc(c, r3, rt.Underlying().UsableSize(r3), usable*4)
		if r4 == r3 {
			t.Error("request above shadow size must not reuse")
		}
	})
	e.Run()
	if rt.ShadowReuses != 1 || rt.ShadowMisses != 3 {
		t.Fatalf("reuses=%d misses=%d, want 1/3", rt.ShadowReuses, rt.ShadowMisses)
	}
}

func TestShadowReallocBoundsMemory(t *testing.T) {
	// The §5.2 guarantee: repeatedly reallocating the same logical array
	// keeps consumption at most twice the request.
	e, rt := newRuntime(t, 2, Config{})
	e.Go("w", func(c *sim.Ctx) {
		ref, usable := rt.ShadowRealloc(c, mem.Nil, 0, 100)
		for i := 0; i < 50; i++ {
			want := int64(60 + (i%5)*20) // 60..140
			ref, usable = rt.ShadowRealloc(c, ref, usable, want)
			if usable > 2*want && want >= 64 {
				t.Fatalf("iteration %d: usable %d > 2x request %d", i, usable, want)
			}
		}
	})
	e.Run()
}

func TestAlwaysReuseShadowAblation(t *testing.T) {
	e, rt := newRuntime(t, 2, Config{AlwaysReuseShadow: true})
	e.Go("w", func(c *sim.Ctx) {
		ref, usable := rt.ShadowRealloc(c, mem.Nil, 0, 1024)
		r2, _ := rt.ShadowRealloc(c, ref, usable, 1) // tiny request still reuses
		if r2 != ref {
			t.Error("AlwaysReuseShadow must reuse regardless of size")
		}
	})
	e.Run()
}

func TestShadowSaveLimit(t *testing.T) {
	e, rt := newRuntime(t, 2, Config{MaxShadowBytes: 256})
	e.Go("w", func(c *sim.Ctx) {
		small := rt.Underlying().Alloc(c, 100)
		big := rt.Underlying().Alloc(c, 1000)
		if !rt.ShadowSave(c, small, 100) {
			t.Error("small block should be shadowed")
		}
		if rt.ShadowSave(c, big, 1000) {
			t.Error("block above MaxShadowBytes must be freed, not shadowed")
		}
	})
	e.Run()
	if live := rt.Underlying().Stats().LiveBlocks; live != 1 {
		t.Fatalf("underlying live = %d, want 1 (big block freed)", live)
	}
}

func TestPoolChurnProperty(t *testing.T) {
	prop := func(ops []uint8, shards8 uint8) bool {
		shards := int(shards8%4) + 1
		ok := true
		e, rt := newRuntime(t, 4, Config{Shards: shards})
		p := rt.NewClassPool("Node", 28)
		e.Go("w", func(c *sim.Ctx) {
			var live []mem.Ref
			for _, op := range ops {
				if len(live) == 0 || op%2 == 0 {
					r, _ := p.Alloc(c)
					for _, l := range live {
						if l == r {
							ok = false
							return
						}
					}
					live = append(live, r)
				} else {
					p.Free(c, live[len(live)-1])
					live = live[:len(live)-1]
				}
			}
			// Conservation: structures are either live, pooled, or were
			// never allocated.
			if int(p.Misses) != len(live)+p.FreeCount() {
				ok = false
			}
		})
		e.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStealShards(t *testing.T) {
	e, rt := newRuntime(t, 4, Config{Shards: 4, StealShards: true})
	p := rt.NewClassPool("Node", 28)
	wg := e.NewWaitGroup()
	wg.Add(1)
	var parked mem.Ref
	e.Go("freer", func(c *sim.Ctx) {
		r, _ := p.Alloc(c)
		p.Free(c, r) // lands in the freer's shard
		parked = r
		wg.Done(c)
	})
	e.Go("stealer", func(c *sim.Ctx) {
		wg.Wait(c)
		r, reused := p.Alloc(c) // own shard empty -> steal
		if !reused {
			t.Error("steal did not reuse the parked structure")
		}
		if r != parked {
			t.Errorf("stole %#x, want %#x", uint64(r), uint64(parked))
		}
	})
	e.Run()
	if p.Steals != 1 {
		t.Fatalf("steals = %d, want 1", p.Steals)
	}
}

func TestNoStealByDefault(t *testing.T) {
	e, rt := newRuntime(t, 4, Config{Shards: 4})
	p := rt.NewClassPool("Node", 28)
	wg := e.NewWaitGroup()
	wg.Add(1)
	e.Go("freer", func(c *sim.Ctx) {
		r, _ := p.Alloc(c)
		p.Free(c, r)
		wg.Done(c)
	})
	e.Go("other", func(c *sim.Ctx) {
		wg.Wait(c)
		if _, reused := p.Alloc(c); reused {
			t.Error("default config must not steal from other shards")
		}
	})
	e.Run()
}

// watchRecorder is a tracer that records its Watch attachment.
type watchRecorder struct {
	sp *mem.Space
	a  alloc.Allocator
	rt *Runtime
}

func (w *watchRecorder) Event(sim.Event) {}
func (w *watchRecorder) Watch(sp *mem.Space, a alloc.Allocator, rt *Runtime) {
	w.sp, w.a, w.rt = sp, a, rt
}

// TestWatchThroughNestedTee: Watch reaches every Watcher inside nested
// sim.Tee fan-outs, skips tracers that only count events, and is a
// no-op on a nil tracer.
func TestWatchThroughNestedTee(t *testing.T) {
	_, rt := newRuntime(t, 2, Config{})
	sp := mem.NewSpace()
	a, b := &watchRecorder{}, &watchRecorder{}
	var plain sim.Recorder
	Watch(sim.NewTee(a, sim.NewTee(&plain, b)), sp, rt.Underlying(), rt)
	for _, w := range []*watchRecorder{a, b} {
		if w.sp != sp || w.a != rt.Underlying() || w.rt != rt {
			t.Errorf("watcher attached to %+v", *w)
		}
	}
	Watch(nil, sp, rt.Underlying(), nil)
}
