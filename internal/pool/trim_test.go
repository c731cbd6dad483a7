package pool

import (
	"testing"

	"amplify/internal/alloc"
	"amplify/internal/mem"
	"amplify/internal/sim"
)

// Trim releases pooled structures until at most keep remain in each
// shard, returning their root memory to the underlying allocator. It
// implements the first §5.1 remedy for pool-held memory: "returning
// memory from the pools to the operating system on demand, or when the
// pools exceed a certain limit".
//
// Only the root objects' memory is released here; the caller receives
// the released roots so it can walk their shadow pointers and release
// the child structures as well — the pool cannot know the structure
// shape. No engine calls it; it lives with its tests.
func (p *ClassPool) Trim(c *sim.Ctx, keep int) []mem.Ref {
	if keep < 0 {
		keep = 0
	}
	var released []mem.Ref
	for _, s := range p.sh {
		if s.lock != nil {
			s.lock.Lock(c)
		}
		for len(s.free) > keep {
			n := len(s.free) - 1
			ref := s.free[n]
			s.free = s.free[:n]
			c.Write(s.metaAddr, 8)
			released = append(released, ref)
		}
		if s.lock != nil {
			s.lock.Unlock(c)
		}
	}
	for _, ref := range released {
		p.rt.under.Free(c, ref)
		p.Released++
	}
	if len(released) > 0 {
		c.Trace(sim.EvPoolTrim, p.class, int64(len(released))*p.size, 0)
	}
	return released
}

func TestTrimReleasesExcess(t *testing.T) {
	e, rt := newRuntime(t, 2, Config{Shards: 1})
	p := rt.NewClassPool("Node", 28)
	e.Go("w", func(c *sim.Ctx) {
		var refs []mem.Ref
		for i := 0; i < 10; i++ {
			r, _ := p.Alloc(c)
			refs = append(refs, r)
		}
		for _, r := range refs {
			p.Free(c, r)
		}
		released := p.Trim(c, 3)
		if len(released) != 7 {
			t.Errorf("released %d roots, want 7", len(released))
		}
		if p.FreeCount() != 3 {
			t.Errorf("pooled after trim = %d, want 3", p.FreeCount())
		}
		// Released memory really went back to the heap: allocating
		// again must miss the pool after 3 hits.
		for i := 0; i < 3; i++ {
			if _, reused := p.Alloc(c); !reused {
				t.Errorf("alloc %d should hit", i)
			}
		}
		if _, reused := p.Alloc(c); reused {
			t.Error("fourth alloc should miss after trim")
		}
	})
	e.Run()
	if live := rt.Underlying().Stats().LiveBlocks; live != 4 {
		t.Fatalf("underlying live = %d, want the 4 re-allocated", live)
	}
}

func TestTrimToZeroAndNegative(t *testing.T) {
	e, rt := newRuntime(t, 2, Config{Shards: 2})
	p := rt.NewClassPool("Node", 28)
	e.Go("w", func(c *sim.Ctx) {
		r1, _ := p.Alloc(c)
		p.Free(c, r1)
		if got := len(p.Trim(c, -5)); got != 1 {
			t.Errorf("trim(-5) released %d, want 1", got)
		}
		if p.FreeCount() != 0 {
			t.Errorf("pool not empty after trim to zero")
		}
		if got := len(p.Trim(c, 0)); got != 0 {
			t.Errorf("second trim released %d, want 0", got)
		}
	})
	e.Run()
}

// trimAll trims every pool of the runtime to the given per-shard
// population and returns the released roots per class.
func trimAll(r *Runtime, c *sim.Ctx, keep int) map[string][]mem.Ref {
	out := make(map[string][]mem.Ref)
	for _, p := range r.pools {
		if released := p.Trim(c, keep); len(released) > 0 {
			out[p.class] = released
		}
	}
	return out
}

func TestTrimAll(t *testing.T) {
	e, rt := newRuntime(t, 2, Config{Shards: 1})
	pa := rt.NewClassPool("A", 16)
	pb := rt.NewClassPool("B", 32)
	e.Go("w", func(c *sim.Ctx) {
		for _, p := range []*ClassPool{pa, pb} {
			var refs []mem.Ref
			for i := 0; i < 4; i++ {
				r, _ := p.Alloc(c)
				refs = append(refs, r)
			}
			for _, r := range refs {
				p.Free(c, r)
			}
		}
		out := trimAll(rt, c, 1)
		if len(out["A"]) != 3 || len(out["B"]) != 3 {
			t.Errorf("trimAll = %d/%d roots, want 3/3", len(out["A"]), len(out["B"]))
		}
	})
	e.Run()
}

// trimEvents records the pool-trim events of a run.
type trimEvents []sim.Event

func (r *trimEvents) Event(e sim.Event) {
	if e.Kind == sim.EvPoolTrim {
		*r = append(*r, e)
	}
}

// TestTrimTraced: a trim that releases structures reports its class
// and the released bytes to the run's tracer in one event; a trim that
// releases nothing reports nothing.
func TestTrimTraced(t *testing.T) {
	var trims trimEvents
	e := sim.New(sim.Config{Processors: 2, Tracer: &trims})
	under, err := alloc.New("serial", e, mem.NewSpace(), alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := NewRuntime(e, under, Config{Shards: 1, SingleThreaded: true}).NewClassPool("Node", 48)
	e.Go("w", func(c *sim.Ctx) {
		r, _ := p.Alloc(c)
		p.Free(c, r)
		p.Trim(c, 0)
		p.Trim(c, 0)
	})
	e.Run()
	if len(trims) != 1 || trims[0].Detail != "Node" || trims[0].Arg1 != 48 {
		t.Errorf("tracer saw trims %+v, want one of 48 bytes of Node", trims)
	}
}
