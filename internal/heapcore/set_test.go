package heapcore

import (
	"testing"

	"amplify/internal/mem"
	"amplify/internal/sim"
)

// TestSetFreesToOwningHeap allocates from heap 1 of a two-heap set and
// frees the block while pick points at heap 0: the block must go back
// to heap 1, under heap 1's lock, and only heaps with a row name get an
// Inspect row.
func TestSetFreesToOwningHeap(t *testing.T) {
	e := sim.New(sim.Config{Processors: 1})
	next := 1
	var s *Set
	s = NewSet(e, mem.NewSpace(), "set", 10, func(c *sim.Ctx) int {
		s.Mutex(next).Lock(c)
		return next
	})
	s.Add("set.h0", "")
	s.Add("set.h1", "h1")
	e.Go("w", func(c *sim.Ctx) {
		r := s.Alloc(c, 100)
		next = 0
		s.Free(c, r)
		if s.UsableSize(r) != 112 {
			t.Errorf("usable = %d, want 112", s.UsableSize(r))
		}
	})
	e.Run()
	if got := s.Mutex(1).Acquires; got != 2 {
		t.Errorf("heap 1 lock taken %d times, want 2", got)
	}
	if got := s.Mutex(0).Acquires; got != 0 {
		t.Errorf("heap 0 lock taken %d times, want 0", got)
	}
	hi := s.Inspect()
	if len(hi.Arenas) != 1 || hi.Arenas[0].Name != "h1" {
		t.Fatalf("arenas = %+v, want one row h1", hi.Arenas)
	}
	if a := hi.Arenas[0]; a.LiveBlocks != 0 || a.FreeBlocks != 1 || a.FreeBytes != 112 {
		t.Errorf("h1 = %+v, want the block back in its bin", a)
	}
	if st := s.Stats(); st.Allocs != 1 || st.Frees != 1 || st.LiveBytes != 0 || hi.GrantedBytes != st.GrantBytes {
		t.Errorf("stats = %+v, granted %d", st, hi.GrantedBytes)
	}
}
