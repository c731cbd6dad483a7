package sim

import "testing"

func TestCASSemantics(t *testing.T) {
	e := New(Config{Processors: 1})
	e.Go("t0", func(c *Ctx) {
		if !c.CAS(0x9000, 0, 7) {
			t.Error("CAS on fresh cell with old=0 failed")
		}
		if c.CAS(0x9000, 0, 9) {
			t.Error("CAS with stale old value succeeded")
		}
		if !c.CAS(0x9000, 7, 9) {
			t.Error("CAS with matching old value failed")
		}
		if got := c.AtomicLoad(0x9000); got != 9 {
			t.Errorf("AtomicLoad = %d, want 9", got)
		}
	})
	e.Run()
	if got := e.atomicWord(0x9000); got != 9 {
		t.Fatalf("final cell value = %d, want 9", got)
	}
	st := e.Stats()
	if st.AtomicCAS != 3 || st.AtomicCASFailed != 1 || st.AtomicLoads != 1 {
		t.Fatalf("stats = %+v, want 3 CAS (1 failed), 1 load", st)
	}
}

func TestFAASemantics(t *testing.T) {
	e := New(Config{Processors: 1})
	e.Go("t0", func(c *Ctx) {
		if old := c.FAA(0xA000, 5); old != 0 {
			t.Errorf("first FAA returned %d, want 0", old)
		}
		if old := c.FAA(0xA000, -2); old != 5 {
			t.Errorf("second FAA returned %d, want 5", old)
		}
		c.AtomicStore(0xA000, 100)
		if old := c.FAA(0xA000, 1); old != 100 {
			t.Errorf("FAA after store returned %d, want 100", old)
		}
	})
	e.Run()
	if got := e.atomicWord(0xA000); got != 101 {
		t.Fatalf("final cell value = %d, want 101", got)
	}
	st := e.Stats()
	if st.AtomicFAA != 3 || st.AtomicStores != 1 {
		t.Fatalf("stats = %+v, want 3 FAA, 1 store", st)
	}
}

// TestContendedCASPingPong hand-counts the coherence traffic of two
// threads alternating CAS on one cell, ordered exactly by waitgroups:
//
//	t0 cpu0: CAS(0,1) wins   — cold line, no RFO, no invalidation
//	t1 cpu1: CAS(0,2) loses  — line owned by cpu0: RFO; t1 never cached it
//	t0 cpu0: CAS(1,3) wins   — line owned by cpu1: RFO; t0's copy was stale
//	t1 cpu1: CAS(3,4) wins   — line owned by cpu0: RFO; t1's copy was stale
//
// A failed CAS still performs its RFO and still invalidates the other
// processor's copy — that is the property this test pins.
func TestContendedCASPingPong(t *testing.T) {
	const addr = 0xB000
	e := New(Config{Processors: 2})
	step1 := e.NewWaitGroup()
	step2 := e.NewWaitGroup()
	step3 := e.NewWaitGroup()
	step1.Add(1)
	step2.Add(1)
	step3.Add(1)
	var t0, t1 *Thread
	t0 = e.Go("t0", func(c *Ctx) {
		if !c.CAS(addr, 0, 1) {
			t.Error("step 1: CAS(0,1) failed")
		}
		step1.Done(c)
		step2.Wait(c)
		if !c.CAS(addr, 1, 3) {
			t.Error("step 3: CAS(1,3) failed")
		}
		step3.Done(c)
	})
	t1 = e.Go("t1", func(c *Ctx) {
		step1.Wait(c)
		if c.CAS(addr, 0, 2) {
			t.Error("step 2: CAS(0,2) succeeded against value 1")
		}
		step2.Done(c)
		step3.Wait(c)
		if !c.CAS(addr, 3, 4) {
			t.Error("step 4: CAS(3,4) failed")
		}
	})
	e.Run()
	if got := e.Cache().RFOs; got != 3 {
		t.Errorf("RFOs = %d, want 3 (every CAS after the first)", got)
	}
	if t0.CacheInvalidations != 1 {
		t.Errorf("t0 invalidations = %d, want 1 (t1's failed CAS invalidated its copy)", t0.CacheInvalidations)
	}
	if t1.CacheInvalidations != 1 {
		t.Errorf("t1 invalidations = %d, want 1", t1.CacheInvalidations)
	}
	st := e.Stats()
	if st.AtomicCAS != 4 || st.AtomicCASFailed != 1 {
		t.Errorf("stats = %+v, want 4 CAS with 1 failure", st)
	}
	if got := e.atomicWord(addr); got != 4 {
		t.Errorf("final value = %d, want 4", got)
	}
}

// TestContendedFAAPingPong hand-counts the traffic of two threads
// alternating FAA on one counter: FAA always takes exclusive ownership,
// so every operation after the first pays an RFO and every reacquire
// finds the local copy invalidated.
func TestContendedFAAPingPong(t *testing.T) {
	const addr = 0xC000
	e := New(Config{Processors: 2})
	step1 := e.NewWaitGroup()
	step2 := e.NewWaitGroup()
	step3 := e.NewWaitGroup()
	step1.Add(1)
	step2.Add(1)
	step3.Add(1)
	var t0, t1 *Thread
	t0 = e.Go("t0", func(c *Ctx) {
		if old := c.FAA(addr, 1); old != 0 {
			t.Errorf("step 1: FAA returned %d, want 0", old)
		}
		step1.Done(c)
		step2.Wait(c)
		if old := c.FAA(addr, 1); old != 2 {
			t.Errorf("step 3: FAA returned %d, want 2", old)
		}
		step3.Done(c)
	})
	t1 = e.Go("t1", func(c *Ctx) {
		step1.Wait(c)
		if old := c.FAA(addr, 1); old != 1 {
			t.Errorf("step 2: FAA returned %d, want 1", old)
		}
		step2.Done(c)
		step3.Wait(c)
		if old := c.FAA(addr, 1); old != 3 {
			t.Errorf("step 4: FAA returned %d, want 3", old)
		}
	})
	e.Run()
	if got := e.Cache().RFOs; got != 3 {
		t.Errorf("RFOs = %d, want 3 (every FAA after the first)", got)
	}
	if t0.CacheInvalidations != 1 || t1.CacheInvalidations != 1 {
		t.Errorf("invalidations t0=%d t1=%d, want 1 each", t0.CacheInvalidations, t1.CacheInvalidations)
	}
	if st := e.Stats(); st.AtomicFAA != 4 {
		t.Errorf("AtomicFAA = %d, want 4", st.AtomicFAA)
	}
	if got := e.atomicWord(addr); got != 4 {
		t.Errorf("final value = %d, want 4", got)
	}
}

// TestAtomicTraceMask checks the EvAtomic* kinds flow through the
// recorder's mask filter: a mask enabling only CAS events records
// nothing else.
func TestAtomicTraceMask(t *testing.T) {
	run := func(mask Mask) *Recorder {
		rec := &Recorder{Mask: mask}
		e := New(Config{Processors: 1, Tracer: rec})
		e.Go("t0", func(c *Ctx) {
			c.CAS(0xD000, 0, 1)
			c.FAA(0xD000, 1)
			c.AtomicLoad(0xD000)
			c.AtomicStore(0xD000, 9)
		})
		e.Run()
		return rec
	}

	counts := func(rec *Recorder) map[EventKind]int {
		m := map[EventKind]int{}
		for _, ev := range rec.Snapshot() {
			m[ev.Kind]++
		}
		return m
	}

	all := counts(run(AllEvents))
	for _, k := range []EventKind{EvAtomicCAS, EvAtomicFAA, EvAtomicLoad, EvAtomicStore} {
		if all[k] != 1 {
			t.Errorf("full trace has %d %v events, want 1", all[k], k)
		}
	}

	only := counts(run(MaskOf(EvAtomicCAS)))
	if only[EvAtomicCAS] != 1 {
		t.Errorf("masked trace has %d CAS events, want 1", only[EvAtomicCAS])
	}
	for k, n := range only {
		if k != EvAtomicCAS && n > 0 {
			t.Errorf("masked trace leaked %d %v events", n, k)
		}
	}
}

// TestAtomicDeterminism pins the atomics to virtual time: two identical
// contended runs produce identical makespans and counters.
func TestAtomicDeterminism(t *testing.T) {
	run := func() (int64, Stats) {
		e := New(Config{Processors: 4})
		for i := 0; i < 16; i++ {
			e.Go("w", func(c *Ctx) {
				for j := 0; j < 50; j++ {
					c.FAA(0xE000, 1)
					for !c.CAS(0xE040, 0, int64(c.ThreadID()+1)) {
						c.Work(3)
					}
					c.AtomicStore(0xE040, 0)
				}
			})
		}
		ms := e.Run()
		return ms, e.Stats()
	}
	ms1, st1 := run()
	ms2, st2 := run()
	if ms1 != ms2 {
		t.Fatalf("makespans differ: %d vs %d", ms1, ms2)
	}
	if st1 != st2 {
		t.Fatalf("stats differ:\n%+v\n%+v", st1, st2)
	}
	if st1.AtomicFAA != 16*50 {
		t.Fatalf("AtomicFAA = %d, want %d", st1.AtomicFAA, 16*50)
	}
}

// AtomicStore writes the 8-byte cell at addr with release semantics: a
// write access through the cache model plus the fence price. No
// simulated runtime issues plain atomic stores, so only tests carry it.
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
