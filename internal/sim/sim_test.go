package sim

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"weak"
)

func testConfig(p int) Config {
	return Config{Processors: p}
}

func TestSingleThreadAdvance(t *testing.T) {
	e := New(testConfig(4))
	e.Go("w", func(c *Ctx) {
		c.Advance(1000)
		c.Advance(500)
	})
	got := e.Run()
	if got != 1500 {
		t.Fatalf("makespan = %d, want 1500", got)
	}
}

func TestIndependentThreadsRunInParallel(t *testing.T) {
	e := New(testConfig(4))
	for i := 0; i < 4; i++ {
		e.Go("w", func(c *Ctx) { c.Advance(1000) })
	}
	if got := e.Run(); got != 1000 {
		t.Fatalf("makespan = %d, want 1000 (4 threads on 4 CPUs)", got)
	}
}

func TestProcessorSharingDilation(t *testing.T) {
	e := New(testConfig(1))
	for i := 0; i < 2; i++ {
		e.Go("w", func(c *Ctx) {
			for j := 0; j < 10; j++ {
				c.Advance(100)
			}
		})
	}
	got := e.Run()
	// Two CPU-bound threads on one processor: each takes ~2x as long.
	if got < 1900 || got > 2500 {
		t.Fatalf("makespan = %d, want ~2000", got)
	}
}

func TestMutexSerializes(t *testing.T) {
	e := New(testConfig(8))
	m := e.NewMutexAt("m", 0)
	for i := 0; i < 4; i++ {
		e.Go("w", func(c *Ctx) {
			m.Lock(c)
			c.Advance(1000)
			m.Unlock(c)
		})
	}
	got := e.Run()
	if got < 4000 {
		t.Fatalf("makespan = %d, want >= 4000 (critical sections serialize)", got)
	}
	if m.Contended != 3 {
		t.Fatalf("contended = %d, want 3", m.Contended)
	}
	if m.Acquires != 4 {
		t.Fatalf("acquires = %d, want 4", m.Acquires)
	}
}

func TestMutexFIFOHandoff(t *testing.T) {
	e := New(testConfig(8))
	m := e.NewMutexAt("m", 0)
	var order []int
	for i := 0; i < 4; i++ {
		e.Go("w", func(c *Ctx) {
			c.Advance(int64(10 * (c.ThreadID() + 1))) // stagger arrivals
			m.Lock(c)
			order = append(order, c.ThreadID())
			c.Advance(1000)
			m.Unlock(c)
		})
	}
	e.Run()
	for i, id := range order {
		if id != i {
			t.Fatalf("acquisition order = %v, want FIFO by arrival", order)
		}
	}
}

// TestMutexQueueStaysFIFO drives the waiter queue through growth,
// sliding down and emptying. Every hand-off must go to the oldest
// waiter and report how many are still queued, the queue must let go
// of the threads it has woken, and a deadlock report must count the
// waiters a held lock strands.
func TestMutexQueueStaysFIFO(t *testing.T) {
	// collected runs e, whose threads each add a weak pointer to their
	// record to ts, and requires every record to be back on the free
	// list once the run is over and held by nothing else, while the
	// engine and the mutex are still reachable.
	collected := func(e *Engine, m *Mutex, ts []weak.Pointer[Thread]) {
		t.Helper()
		e.Run()
		for i, p := range ts {
			if !slices.Contains(e.freeThreads, p.Value()) {
				t.Fatalf("thread %d's record is not on the free list after the run", i)
			}
		}
		if names := heldOutsideFreeList(e, ts); len(names) != 0 {
			t.Fatalf("%d thread records are still reachable after the run", len(names))
		}
		runtime.KeepAlive(m)
	}

	// Arrivals every 20 cycles outpace 25-cycle critical sections, then
	// a second wave arrives after the queue has drained.
	rec := &Recorder{}
	e := New(Config{Processors: 64, Tracer: rec})
	m := e.NewMutexAt("m", 0)
	var ts []weak.Pointer[Thread]
	for i := 0; i < 48; i++ {
		arrive := int64(20 * i)
		if i >= 32 {
			arrive += 10_000
		}
		e.Go("w", func(c *Ctx) {
			c.Advance(arrive)
			m.Lock(c)
			c.Advance(25)
			m.Unlock(c)
			ts = append(ts, recordOf(c))
		})
	}
	collected(e, m, ts)
	var queue []int
	handoffs := 0
	for _, ev := range rec.Events {
		switch ev.Kind {
		case EvLockContended:
			queue = append(queue, ev.Thread)
		case EvLockHandoff:
			handoffs++
			if len(queue) == 0 || int(ev.Arg1) != queue[0] {
				t.Fatalf("hand-off %d went to thread %d, queue %v", handoffs, ev.Arg1, queue)
			}
			queue = queue[1:]
			if int(ev.Arg2) != len(queue) {
				t.Fatalf("hand-off %d reports %d waiters, want %d", handoffs, ev.Arg2, len(queue))
			}
		}
	}
	if len(queue) != 0 || int64(handoffs) != m.Contended || m.Contended < 40 {
		t.Fatalf("%d hand-offs for %d contended locks, %d left queued", handoffs, m.Contended, len(queue))
	}

	// Four waiters fill the queue's array and two are popped; a fifth
	// arrives while the second holds the lock, so the queue slides
	// down. The slots it slid out of must not keep their threads.
	e = New(Config{Processors: 8})
	m = e.NewMutexAt("m", 0)
	ts = ts[:0]
	arrive := []int64{0, 10, 20, 30, 40, 1_500}
	hold := []int64{1_000, 25, 1_000, 25, 25, 25}
	for i := range arrive {
		e.Go("w", func(c *Ctx) {
			c.Advance(arrive[i])
			m.Lock(c)
			c.Advance(hold[i])
			m.Unlock(c)
			ts = append(ts, recordOf(c))
		})
	}
	collected(e, m, ts)

	// The first waiter takes the lock and exits holding it: the report
	// counts the two threads still queued behind it.
	e = New(Config{Processors: 4})
	m = e.NewMutexAt("stuck", 0)
	e.Go("holder", func(c *Ctx) {
		m.Lock(c)
		c.Advance(100)
		m.Unlock(c)
	})
	for i := 0; i < 3; i++ {
		e.Go("w", func(c *Ctx) {
			c.Advance(int64(10 * (i + 1)))
			m.Lock(c)
		})
	}
	defer func() {
		if r := fmt.Sprint(recover()); !strings.Contains(r, `mutex "stuck" held by 1 with 2 waiters`) {
			t.Errorf("deadlock report:\n%s", r)
		}
	}()
	e.Run()
}

func TestTryLock(t *testing.T) {
	e := New(testConfig(8))
	m := e.NewMutexAt("m", 0)
	var gotLock, failed bool
	e.Go("holder", func(c *Ctx) {
		m.Lock(c)
		c.Advance(10_000)
		m.Unlock(c)
	})
	e.Go("poker", func(c *Ctx) {
		c.Advance(100) // arrive while holder owns the lock
		failed = !m.TryLock(c)
		c.Advance(20_000)
		gotLock = m.TryLock(c)
		if gotLock {
			m.Unlock(c)
		}
	})
	e.Run()
	if !failed {
		t.Error("TryLock should fail while lock held")
	}
	if !gotLock {
		t.Error("TryLock should succeed after release")
	}
	if m.FailedTry != 1 {
		t.Errorf("FailedTry = %d, want 1", m.FailedTry)
	}
}

func TestUnlockNotOwnerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from foreign unlock")
		}
	}()
	e := New(testConfig(2))
	m := e.NewMutexAt("m", 0)
	e.Go("w", func(c *Ctx) { m.Unlock(c) })
	e.Run()
}

func TestCacheHitsAndMisses(t *testing.T) {
	e := New(testConfig(2))
	e.Go("w", func(c *Ctx) {
		c.Read(0x1000, 8) // cold: miss
		c.Read(0x1000, 8) // hit
		c.Read(0x1004, 4) // same line: hit
		c.Write(0x1000, 8)
		c.Read(0x1040, 8) // next line: miss
	})
	e.Run()
	if st := e.Stats(); st.CacheMisses != 2 || st.CacheHits != 3 {
		t.Errorf("misses = %d, hits = %d; want 2 and 3", st.CacheMisses, st.CacheHits)
	}
}

func TestFalseSharingCostsMore(t *testing.T) {
	run := func(stride uint64) int64 {
		e := New(testConfig(2))
		for i := 0; i < 2; i++ {
			addr := 0x1000 + uint64(i)*stride
			e.Go("w", func(c *Ctx) {
				for j := 0; j < 200; j++ {
					c.Write(addr, 8)
				}
			})
		}
		return e.Run()
	}
	sameLine := run(8)    // both threads write the same 64-byte line
	separate := run(4096) // disjoint lines
	if sameLine <= 2*separate {
		t.Fatalf("false sharing run = %d, separate = %d; want sharing to be much slower", sameLine, separate)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() int64 {
		e := New(testConfig(4))
		m := e.NewMutexAt("m", 0)
		for i := 0; i < 6; i++ {
			e.Go("w", func(c *Ctx) {
				for j := 0; j < 50; j++ {
					m.Lock(c)
					c.Advance(17)
					c.Write(uint64(0x2000+8*c.ThreadID()), 8)
					m.Unlock(c)
					c.Advance(91)
				}
			})
		}
		return e.Run()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic makespans: %d vs %d", a, b)
	}
}

func TestSpawnAndWaitGroup(t *testing.T) {
	e := New(testConfig(4))
	wg := e.NewWaitGroup()
	wg.Add(3)
	var children int
	e.Go("main", func(c *Ctx) {
		for i := 0; i < 3; i++ {
			c.Go("child", func(cc *Ctx) {
				cc.Advance(500)
				children++
				wg.Done(cc)
			})
		}
		wg.Wait(c)
		if children != 3 {
			t.Errorf("children done = %d before Wait returned", children)
		}
	})
	e.Run()
	if children != 3 {
		t.Fatalf("children = %d, want 3", children)
	}
}

// migrationRun runs 4 CPU-bound threads on procs processors for at
// least five migration periods and returns each thread's migrations.
func migrationRun(t *testing.T, procs int) []int64 {
	t.Helper()
	e := New(testConfig(procs))
	migrations := make([]int64, 4)
	for i := range migrations {
		e.Go("w", func(c *Ctx) {
			for j := 0; j < 100; j++ {
				c.Advance(migrationPeriod / 20)
			}
			migrations[i] = c.t.Migrations
		})
	}
	if got := e.Run(); got < 5*migrationPeriod {
		t.Fatalf("makespan %d crosses fewer than 5 migration periods", got)
	}
	return migrations
}

func TestMigrationWhenOversubscribed(t *testing.T) {
	for i, n := range migrationRun(t, 2) { // 4 threads, 2 CPUs
		if n == 0 {
			t.Fatalf("thread %d never migrated with threads > processors", i)
		}
	}
}

func TestNoMigrationWhenUndersubscribed(t *testing.T) {
	for i, n := range migrationRun(t, 4) {
		if n != 0 {
			t.Fatalf("thread %d migrated %d times with T == P", i, n)
		}
	}
}

func TestStatsAggregation(t *testing.T) {
	e := New(testConfig(2))
	m := e.NewMutexAt("m", 0)
	for i := 0; i < 2; i++ {
		e.Go("w", func(c *Ctx) {
			m.Lock(c)
			c.Advance(100)
			c.Write(0x100, 8)
			m.Unlock(c)
		})
	}
	e.Run()
	st := e.Stats()
	if st.LockAcquires != 2 {
		t.Errorf("LockAcquires = %d, want 2", st.LockAcquires)
	}
	if st.Makespan == 0 {
		t.Error("Makespan = 0")
	}
	if st.CacheMisses == 0 {
		t.Error("CacheMisses = 0")
	}
}

func TestRunTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on second Run")
		}
	}()
	e := New(testConfig(1))
	e.Go("w", func(c *Ctx) { c.Advance(1) })
	e.Run()
	e.Run()
}
