package ptmalloc

import (
	"testing"

	"amplify/internal/mem"
	"amplify/internal/sim"
)

func TestArenaGrowthUnderContention(t *testing.T) {
	e := sim.New(sim.Config{Processors: 8})
	a := New(e, mem.NewSpace())
	if a.Arenas() != 1 {
		t.Fatalf("initial arenas = %d, want 1", a.Arenas())
	}
	for i := 0; i < 8; i++ {
		e.Go("w", func(c *sim.Ctx) {
			for j := 0; j < 300; j++ {
				r := a.Alloc(c, 20)
				c.Write(uint64(r), 8)
				a.Free(c, r)
			}
		})
	}
	e.Run()
	if a.Arenas() < 2 {
		t.Fatalf("arenas = %d; expected growth under 8-thread contention", a.Arenas())
	}
}

func TestSingleThreadStaysOnOneArena(t *testing.T) {
	e := sim.New(sim.Config{Processors: 8})
	a := New(e, mem.NewSpace())
	e.Go("w", func(c *sim.Ctx) {
		for j := 0; j < 500; j++ {
			r := a.Alloc(c, 20)
			a.Free(c, r)
		}
	})
	e.Run()
	if a.Arenas() != 1 {
		t.Fatalf("arenas = %d, want 1 for a single thread", a.Arenas())
	}
}

func TestFreeGoesToHomeArena(t *testing.T) {
	e := sim.New(sim.Config{Processors: 8})
	a := New(e, mem.NewSpace())
	var ref mem.Ref
	done := e.NewWaitGroup()
	done.Add(1)
	e.Go("producer", func(c *sim.Ctx) {
		ref = a.Alloc(c, 64)
		done.Done(c)
	})
	e.Go("consumer", func(c *sim.Ctx) {
		done.Wait(c)
		a.Free(c, ref) // cross-thread free must not panic
		r2 := a.Alloc(c, 64)
		_ = r2
	})
	e.Run()
	if st := a.Stats(); st.Allocs != 2 || st.Frees != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestArenaCap(t *testing.T) {
	e := sim.New(sim.Config{Processors: 2})
	a := New(e, mem.NewSpace())
	a.max = 2
	for i := 0; i < 6; i++ {
		e.Go("w", func(c *sim.Ctx) {
			for j := 0; j < 200; j++ {
				r := a.Alloc(c, 20)
				a.Free(c, r)
			}
		})
	}
	e.Run()
	if a.Arenas() > 2 {
		t.Fatalf("arenas = %d, want <= cap 2", a.Arenas())
	}
}
