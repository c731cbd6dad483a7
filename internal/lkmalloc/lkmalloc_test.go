package lkmalloc

import (
	"testing"

	"amplify/internal/mem"
	"amplify/internal/sim"
)

func TestHeapPerProcessor(t *testing.T) {
	e := sim.New(sim.Config{Processors: 4})
	a := New(e, mem.NewSpace(), 0)
	if a.Len() != 4 {
		t.Fatalf("heaps = %d, want 4", a.Len())
	}
}

func TestCrossThreadFreeGoesHome(t *testing.T) {
	e := sim.New(sim.Config{Processors: 4})
	a := New(e, mem.NewSpace(), 0)
	var ref mem.Ref
	wg := e.NewWaitGroup()
	wg.Add(1)
	e.Go("p", func(c *sim.Ctx) {
		ref = a.Alloc(c, 64)
		wg.Done(c)
	})
	e.Go("q", func(c *sim.Ctx) {
		wg.Wait(c)
		a.Free(c, ref)
		r2 := a.Alloc(c, 64)
		a.Free(c, r2)
	})
	e.Run()
	if st := a.Stats(); st.LiveBlocks != 0 || st.Allocs != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestScalesAcrossThreads(t *testing.T) {
	makespan := func(threads int) int64 {
		e := sim.New(sim.Config{Processors: 8})
		a := New(e, mem.NewSpace(), 0)
		per := 1600 / threads
		for i := 0; i < threads; i++ {
			e.Go("w", func(c *sim.Ctx) {
				for j := 0; j < per; j++ {
					r := a.Alloc(c, 20)
					c.Write(uint64(r), 8)
					a.Free(c, r)
				}
			})
		}
		return e.Run()
	}
	t1, t4 := makespan(1), makespan(4)
	if float64(t4) > 0.6*float64(t1) {
		t.Fatalf("lkmalloc did not scale: 1T=%d 4T=%d", t1, t4)
	}
}
