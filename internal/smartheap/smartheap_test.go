package smartheap

import (
	"testing"

	"amplify/internal/heapcore"
	"amplify/internal/mem"
	"amplify/internal/sim"
)

func TestRefillBatches(t *testing.T) {
	e := sim.New(sim.Config{Processors: 2})
	a := New(e, mem.NewSpace())
	e.Go("w", func(c *sim.Ctx) {
		// First alloc triggers one batched refill...
		a.Alloc(c, 16)
		before := a.lock.Acquires
		// ...so the next BatchSize-1 allocations must not touch the
		// shared lock.
		for i := 0; i < BatchSize-1; i++ {
			a.Alloc(c, 16)
		}
		if a.lock.Acquires != before {
			t.Errorf("shared lock taken %d times during cached allocs", a.lock.Acquires-before)
		}
	})
	e.Run()
}

func TestFlushOnOverflow(t *testing.T) {
	e := sim.New(sim.Config{Processors: 2})
	a := New(e, mem.NewSpace())
	e.Go("w", func(c *sim.Ctx) {
		var refs []mem.Ref
		for i := 0; i < CacheCap+BatchSize+8; i++ {
			refs = append(refs, a.Alloc(c, 16))
		}
		for _, r := range refs {
			a.Free(c, r)
		}
		tc := a.caches[c.ThreadID()]
		if len(tc.lists[0]) > CacheCap+1 {
			t.Errorf("cache holds %d blocks, cap %d", len(tc.lists[0]), CacheCap)
		}
	})
	e.Run()
}

func TestCachesAreThreadPrivate(t *testing.T) {
	e := sim.New(sim.Config{Processors: 4})
	a := New(e, mem.NewSpace())
	for i := 0; i < 3; i++ {
		e.Go("w", func(c *sim.Ctx) {
			r := a.Alloc(c, 32)
			a.Free(c, r)
		})
	}
	e.Run()
	if len(a.caches) != 3 {
		t.Fatalf("caches = %d, want 3", len(a.caches))
	}
}

func TestLargeBypassesCache(t *testing.T) {
	e := sim.New(sim.Config{Processors: 2})
	a := New(e, mem.NewSpace())
	e.Go("w", func(c *sim.Ctx) {
		before := a.lock.Acquires
		r := a.Alloc(c, MaxCached*4)
		if a.lock.Acquires == before {
			t.Error("large allocation did not take the shared lock")
		}
		a.Free(c, r)
	})
	e.Run()
	if st := a.Stats(); st.LiveBlocks != 0 {
		t.Fatalf("leaked: %+v", st)
	}
}

// TestBlockChangesRole follows one shared-heap block from a large
// block to a cached one and back. Freed as large, the 2048-byte block
// is the first fit of a refill of the 1024 class; from then on it is a
// 1024-byte block, until a flush returns it to the shared heap and a
// large request takes it again as 2048 bytes.
func TestBlockChangesRole(t *testing.T) {
	e := sim.New(sim.Config{Processors: 1})
	a := New(e, mem.NewSpace())
	e.Go("w", func(c *sim.Ctx) {
		check := func(step string, ref mem.Ref, usable, live int64) {
			if got := a.UsableSize(ref); got != usable {
				t.Errorf("%s: UsableSize = %d, want %d", step, got, usable)
			}
			if st := a.Stats(); st.LiveBytes != live {
				t.Errorf("%s: LiveBytes = %d, want %d", step, st.LiveBytes, live)
			}
		}
		big := a.Alloc(c, 2048)
		check("large", big, 2048, 2048)
		a.Free(c, big)
		check("freed large", big, 2048, 0)

		// One refill puts the block at the bottom of the cache list, so
		// it is the last of a batch to be handed out. Three batches
		// leave the cache empty.
		var refs []mem.Ref
		for i := 0; i < 3*BatchSize; i++ {
			refs = append(refs, a.Alloc(c, 1000))
		}
		if refs[BatchSize-1] != big {
			t.Fatalf("the refill did not take the freed large block")
		}
		check("cached", big, 1024, 3*BatchSize*1024)

		// Freed as the cache's (CacheCap+1)th block, it is in the batch
		// the overflow flushes.
		refs = append(refs[:BatchSize-1], refs[BatchSize:]...)
		for _, r := range refs[:CacheCap] {
			a.Free(c, r)
		}
		a.Free(c, big)
		rest := refs[CacheCap:]
		check("flushed", big, 1024, int64(len(rest))*1024)

		if r := a.Alloc(c, 1500); r != big {
			t.Fatalf("the large request did not take the flushed block")
		}
		check("large again", big, 2048, 2048+int64(len(rest))*1024)
		a.Free(c, big)
		check("freed again", big, 2048, int64(len(rest))*1024)
	})
	e.Run()
}

// TestCacheClasses checks that a thread cache has a list for every
// class up to MaxCached.
func TestCacheClasses(t *testing.T) {
	if last, size := heapcore.SizeClass(MaxCached, MaxCached); last != cacheClasses-1 || size != MaxCached {
		t.Fatalf("the largest cached class is %d (%d B); cacheClasses is %d", last, size, cacheClasses)
	}
}
