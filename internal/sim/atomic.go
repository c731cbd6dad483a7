package sim

// Simulated atomic operations. The engine keeps the value of every
// atomic cell in a host-side word table — the simulated address space
// stores no payload bytes anywhere in this repository — keyed by byte
// address. Cells spring into existence holding zero, like fresh memory
// from sbrk. The scheduler (exactly one simulated thread runs at
// a time) makes the table's host-side accesses deterministic without
// any host locking: operations interleave in virtual-time order, which
// is the simulation's linearization order.
//
// Cache charging follows the MESI model in cache.go. Every
// read-modify-write — CAS, successful or not, and FAA — issues a write
// access: the processor takes the line exclusively before it can
// attempt the operation (on real hardware a lock cmpxchg performs its
// RFO whether or not the compare wins), so a CAS on a line last
// written elsewhere pays the RFO and its version bump invalidates
// every other processor's copy. AtomicStore is a plain write access
// plus the fence price; AtomicLoad charges only a read.

// atomicWord reads the cell at addr, host-side.
func (e *Engine) atomicWord(addr uint64) int64 {
	return e.atomics[addr]
}

// setAtomicWord writes the cell at addr, host-side.
func (e *Engine) setAtomicWord(addr uint64, v int64) {
	if e.atomics == nil {
		e.atomics = make(map[uint64]int64)
	}
	e.atomics[addr] = v
}

// AtomicValue reports the current value of the cell at addr without
// charging any simulated work (for tests and post-run inspection).
func (e *Engine) AtomicValue(addr uint64) int64 { return e.atomicWord(addr) }

// CAS atomically compares the 8-byte cell at addr with old and, when
// equal, replaces it with new. It reports whether the swap happened.
// Both outcomes charge the line's write access (a failed CAS still
// takes the line exclusively, invalidating other processors' copies)
// plus the CostModel.Atomic fence price.
func (c *Ctx) CAS(addr uint64, old, new int64) bool {
	t := c.t
	e := t.e
	cur := e.atomicWord(addr)
	ok := cur == old
	if ok {
		e.setAtomicWord(addr, new)
	}
	e.cache.access(t, t.cpu(), addr, 8, true)
	t.advance(e.cost.Atomic)
	t.AtomicCAS++
	if !ok {
		t.AtomicCASFailed++
	}
	if e.tracer != nil {
		var won int64
		if ok {
			won = 1
		}
		e.emit(t, EvAtomicCAS, "", int64(addr), won)
	}
	t.maybeYield()
	return ok
}

// FAA atomically adds delta to the 8-byte cell at addr and returns the
// cell's previous value. FAA always takes exclusive ownership of the
// line (write access) and pays the fence price.
func (c *Ctx) FAA(addr uint64, delta int64) int64 {
	t := c.t
	e := t.e
	old := e.atomicWord(addr)
	e.setAtomicWord(addr, old+delta)
	e.cache.access(t, t.cpu(), addr, 8, true)
	t.advance(e.cost.Atomic)
	t.AtomicFAA++
	e.traceArgs(t, EvAtomicFAA, "", int64(addr), delta)
	t.maybeYield()
	return old
}

// AtomicLoad reads the 8-byte cell at addr with acquire semantics: an
// ordinary read through the cache model (no fence price on the
// simulated TSO machine).
func (c *Ctx) AtomicLoad(addr uint64) int64 {
	t := c.t
	e := t.e
	v := e.atomicWord(addr)
	e.cache.access(t, t.cpu(), addr, 8, false)
	t.AtomicLoads++
	e.traceArgs(t, EvAtomicLoad, "", int64(addr), 0)
	t.maybeYield()
	return v
}

// AtomicStore writes the 8-byte cell at addr with release semantics: a
// write access through the cache model plus the fence price.
func (c *Ctx) AtomicStore(addr uint64, v int64) {
	t := c.t
	e := t.e
	e.setAtomicWord(addr, v)
	e.cache.access(t, t.cpu(), addr, 8, true)
	t.advance(e.cost.Atomic)
	t.AtomicStores++
	e.traceArgs(t, EvAtomicStore, "", int64(addr), v)
	t.maybeYield()
}
