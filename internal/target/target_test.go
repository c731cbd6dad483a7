package target

import (
	"testing"

	"amplify/internal/alloc"
	"amplify/internal/mem"
	"amplify/internal/pool"
	"amplify/internal/sim"
)

func TestBootDefaults(t *testing.T) {
	m, err := Boot(Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Processors != 8 || m.Engine.Processors() != 8 {
		t.Errorf("processors = %d (engine %d), want 8", m.Processors, m.Engine.Processors())
	}
	if m.Strategy != "serial" || m.Alloc.Name() != "serial" {
		t.Errorf("strategy = %q (allocator %q), want serial", m.Strategy, m.Alloc.Name())
	}
	if m.MaxSteps != 50_000_000 {
		t.Errorf("MaxSteps = %d, want 50 million", m.MaxSteps)
	}
	m, err = Boot(Config{Processors: 3, Strategy: "hoard", MaxSteps: 7}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Processors != 3 || m.Engine.Processors() != 3 || m.Alloc.Name() != "hoard" || m.MaxSteps != 7 {
		t.Errorf("explicit config not kept: %+v, allocator %q", m.Config, m.Alloc.Name())
	}
}

func TestBootUnknownStrategy(t *testing.T) {
	_, err := Boot(Config{Strategy: "bogus"}, Options{})
	want := alloc.Valid("bogus")
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("Boot error = %v, want alloc.New's %v", err, want)
	}
}

func TestBootLockElision(t *testing.T) {
	cases := []struct {
		pool  pool.Config
		opt   Options
		elide bool
	}{
		{pool.Config{}, Options{}, false},
		{pool.Config{}, Options{ElidePoolLocks: true}, true},
		// A caller that asks for a single-threaded runtime keeps it.
		{pool.Config{SingleThreaded: true}, Options{}, true},
	}
	for _, tc := range cases {
		m, err := Boot(Config{Pool: tc.pool}, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Pools.Config().SingleThreaded; got != tc.elide {
			t.Errorf("pool %+v, options %+v: SingleThreaded = %v, want %v", tc.pool, tc.opt, got, tc.elide)
		}
		// Elided pools take no lock: one miss and one hit cost only the
		// serial heap's lock on the miss.
		np := m.Pools.NewClassPool("Node", 24)
		m.Engine.Go("main", func(c *sim.Ctx) {
			r, _ := np.Alloc(c)
			np.Free(c, r)
			r, _ = np.Alloc(c)
			np.Free(c, r)
		})
		st := m.Run()
		if locked := st.Sim.LockAcquires > 1; locked == tc.elide {
			t.Errorf("pool %+v, options %+v: %d lock acquires", tc.pool, tc.opt, st.Sim.LockAcquires)
		}
	}
}

func TestRunSumsPools(t *testing.T) {
	m, err := Boot(Config{}, Options{ElidePoolLocks: true})
	if err != nil {
		t.Fatal(err)
	}
	a := m.Pools.NewClassPool("A", 16)
	b := m.Pools.NewClassPool("B", 32)
	m.Engine.Go("main", func(c *sim.Ctx) {
		// A: two misses, then two hits. B: one miss, one hit.
		r1, _ := a.Alloc(c)
		r2, _ := a.Alloc(c)
		a.Free(c, r1)
		a.Free(c, r2)
		r1, _ = a.Alloc(c)
		r2, _ = a.Alloc(c)
		a.Free(c, r1)
		a.Free(c, r2)
		r, _ := b.Alloc(c)
		b.Free(c, r)
		r, _ = b.Alloc(c)
		b.Free(c, r)
	})
	st := m.Run()
	if a.Hits != 2 || a.Misses != 2 || b.Hits != 1 || b.Misses != 1 {
		t.Fatalf("pool counters A %d/%d, B %d/%d", a.Hits, a.Misses, b.Hits, b.Misses)
	}
	if st.PoolHits != 3 || st.PoolMisses != 3 {
		t.Errorf("PoolHits/PoolMisses = %d/%d, want 3/3", st.PoolHits, st.PoolMisses)
	}
	if st.Makespan <= 0 || st.Alloc.Allocs != 3 || st.Footprint <= 0 {
		t.Errorf("harvest = %+v", st)
	}
}

// watcher records what pool.Watch hands it.
type watcher struct {
	sp     *mem.Space
	a      alloc.Allocator
	rt     *pool.Runtime
	events int
}

func (w *watcher) Event(sim.Event) { w.events++ }

func (w *watcher) Watch(sp *mem.Space, a alloc.Allocator, rt *pool.Runtime) {
	w.sp, w.a, w.rt = sp, a, rt
}

func TestBootWatchesThroughTee(t *testing.T) {
	var n int
	w := &watcher{}
	m, err := Boot(Config{Strategy: "ptmalloc", Tracer: sim.Tee{countOnly{&n}, w}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w.sp != m.Space || w.a != m.Alloc || w.rt != m.Pools || w.rt == nil {
		t.Fatalf("watcher got space %p, allocator %v, runtime %p; machine has %p, %v, %p",
			w.sp, w.a, w.rt, m.Space, m.Alloc, m.Pools)
	}
	m.Engine.Go("main", func(c *sim.Ctx) { m.Alloc.Free(c, m.Alloc.Alloc(c, 40)) })
	m.Run()
	if w.events == 0 || w.events != n {
		t.Errorf("tee delivered %d and %d events", w.events, n)
	}
}

// countOnly is a tracer that is not a pool.Watcher.
type countOnly struct{ n *int }

func (c countOnly) Event(sim.Event) { *c.n++ }
