package pool

import (
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
// the released roots so generated code (or the interpreter) can walk
// their shadow pointers and release the child structures as well —
// the pool cannot know the structure shape.
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
