package hoard

import (
	"testing"

	"amplify/internal/mem"
	"amplify/internal/sim"
)

func TestHeapModulation(t *testing.T) {
	e := sim.New(sim.Config{Processors: 4})
	a := New(e, mem.NewSpace(), 0)
	// 4 processors -> 4 heaps (plus global). Thread ids 0..3 map to
	// distinct heaps; ids 4..7 collide with them — exactly the paper's
	// explanation for Figure 10.
	seen := map[int]int{}
	for tid := 0; tid < 8; tid++ {
		seen[a.heapFor(tid)]++
	}
	if len(seen) != 4 {
		t.Fatalf("distinct heaps = %d, want 4", len(seen))
	}
	for h, n := range seen {
		if n != 2 {
			t.Fatalf("heap %d has %d threads, want 2", h, n)
		}
	}
	if a.heapFor(0) == 0 {
		t.Fatal("thread mapped to the global heap")
	}
}

func TestSuperblockServesManyBlocks(t *testing.T) {
	e := sim.New(sim.Config{Processors: 2})
	sp := mem.NewSpace()
	a := New(e, sp, 0)
	e.Go("w", func(c *sim.Ctx) {
		before := sp.Sbrks()
		for i := 0; i < SuperblockSize/16; i++ {
			a.Alloc(c, 16)
		}
		grew := sp.Sbrks() - before
		if grew != 1 {
			t.Errorf("sbrks for one superblock's worth of 16B blocks = %d, want 1", grew)
		}
	})
	e.Run()
}

func TestEmptySuperblockMovesToGlobal(t *testing.T) {
	e := sim.New(sim.Config{Processors: 2})
	a := New(e, mem.NewSpace(), 0)
	e.Go("w", func(c *sim.Ctx) {
		// Fill enough superblocks of one class to exceed the retention
		// limit, then free everything.
		perSB := SuperblockSize / 64
		var refs []mem.Ref
		for i := 0; i < perSB*(RetainPerClass+2); i++ {
			refs = append(refs, a.Alloc(c, 64))
		}
		for _, r := range refs {
			a.Free(c, r)
		}
	})
	e.Run()
	g := a.heaps[0]
	total := 0
	for _, l := range g.sbs {
		total += len(l)
	}
	if total == 0 {
		t.Fatal("no superblock migrated to the global heap")
	}
}

func TestGlobalHeapReuse(t *testing.T) {
	e := sim.New(sim.Config{Processors: 2})
	sp := mem.NewSpace()
	a := New(e, sp, 0)
	wg := e.NewWaitGroup()
	wg.Add(1)
	e.Go("first", func(c *sim.Ctx) {
		perSB := SuperblockSize / 64
		var refs []mem.Ref
		for i := 0; i < perSB*(RetainPerClass+2); i++ {
			refs = append(refs, a.Alloc(c, 64))
		}
		for _, r := range refs {
			a.Free(c, r)
		}
		wg.Done(c)
	})
	e.Go("second", func(c *sim.Ctx) {
		wg.Wait(c)
		before := sp.Sbrks()
		a.Alloc(c, 64) // different heap (tid 1): should pull from global
		if sp.Sbrks() != before {
			t.Error("second thread carved a new superblock instead of reusing the global heap")
		}
	})
	e.Run()
}

func TestHugeAllocations(t *testing.T) {
	e := sim.New(sim.Config{Processors: 2})
	a := New(e, mem.NewSpace(), 0)
	e.Go("w", func(c *sim.Ctx) {
		r := a.Alloc(c, MaxClass+1)
		if a.UsableSize(r) < MaxClass+1 {
			t.Errorf("huge usable = %d", a.UsableSize(r))
		}
		a.Free(c, r)
	})
	e.Run()
	if st := a.Stats(); st.LiveBlocks != 0 {
		t.Fatalf("leaked: %+v", st)
	}
}

func TestBlocksOfDifferentHeapsOnDifferentLines(t *testing.T) {
	e := sim.New(sim.Config{Processors: 4})
	a := New(e, mem.NewSpace(), 0)
	refs := make([]mem.Ref, 2)
	wg := e.NewWaitGroup()
	wg.Add(2)
	for i := 0; i < 2; i++ {
		e.Go("w", func(c *sim.Ctx) {
			refs[c.ThreadID()] = a.Alloc(c, 16)
			wg.Done(c)
		})
	}
	e.Run()
	if refs[0]>>6 == refs[1]>>6 {
		t.Fatalf("blocks for different heaps share cache line: %#x %#x", uint64(refs[0]), uint64(refs[1]))
	}
}
