package sim

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"weak"
)

// recordOf returns a weak pointer to the record of the thread c runs.
func recordOf(c *Ctx) weak.Pointer[Thread] { return weak.Make(c.t) }

// heldOutsideFreeList drops e's free list of thread records and reports
// the names of the threads whose records are still reachable, while e
// and everything it registered stay alive: such a record is held by an
// engine structure that should have let go of it.
func heldOutsideFreeList(e *Engine, records []weak.Pointer[Thread]) []string {
	e.freeThreads = nil
	runtime.GC()
	var names []string
	for _, p := range records {
		if th := p.Value(); th != nil {
			names = append(names, th.name)
		}
	}
	runtime.KeepAlive(e)
	return names
}

// TestFinishedThreadsAreCollected checks that the engine reuses the
// record of every finished thread and that nothing but its free list
// holds one: once the list is dropped, the garbage collector reclaims
// every record while the engine, its mutex, channels and waitgroup are
// all still reachable. Each thread below has passed through one of the
// queues that park threads (mutex waiters, channel receivers and
// senders, waitgroup waiters), and one was spawned from inside the run,
// so each queue must let go of the threads it has woken. The lockstep
// threads were stacked inside another thread's scheduling loop before
// they finished, so neither the loop nor the unwind target may keep
// them either. The checker, which runs once every other thread has
// finished, finds all their records on the free list and spawns
// threads that must take them.
func TestFinishedThreadsAreCollected(t *testing.T) {
	e := New(Config{Processors: 2})
	m := e.NewMutexAt("m", 0)
	recvCh, sendCh := e.NewChannel("recv", 1), e.NewChannel("send", 1)
	wg := e.NewWaitGroup()
	wg.Add(1)
	var finished []weak.Pointer[Thread]
	record := func(fn func(*Ctx)) func(*Ctx) {
		return func(c *Ctx) {
			fn(c)
			finished = append(finished, recordOf(c))
		}
	}

	e.Go("holder", record(func(c *Ctx) {
		m.Lock(c)
		c.Advance(100)
		m.Unlock(c)
	}))
	e.Go("lock-waiter", record(func(c *Ctx) {
		c.Advance(10)
		m.Lock(c) // parks in m.waiters
		m.Unlock(c)
	}))
	e.Go("receiver", record(func(c *Ctx) { recvCh.Recv(c) })) // parks in recvQ
	e.Go("sender", record(func(c *Ctx) {
		c.Advance(100)
		recvCh.Send(c, 1)
		sendCh.Send(c, 1)
		sendCh.Send(c, 2) // the buffer is full: parks in sendQ
	}))
	e.Go("drainer", record(func(c *Ctx) {
		c.Advance(1_000)
		sendCh.Recv(c)
		sendCh.Recv(c)
	}))
	e.Go("joiner", record(func(c *Ctx) { wg.Wait(c) })) // parks in wg.waiters
	e.Go("spawner", record(func(c *Ctx) {
		c.Advance(100)
		c.Go("child", record(func(cc *Ctx) {
			cc.Advance(50)
			wg.Done(cc)
		}))
	}))
	// Each lockstep step preempts, and the thread resumes the next one
	// from its own scheduling loop, which stacks it. Only the lockstep
	// threads look, so the first two are seen stacked.
	wasStacked := map[string]bool{}
	for k := range 3 {
		e.Go(fmt.Sprintf("lockstep%d", k), record(func(c *Ctx) {
			for range 4 {
				c.Work(1)
				for _, th := range e.live {
					if th.w != nil && th.w.stacked {
						wasStacked[th.name] = true
					}
				}
			}
		}))
	}
	reused := 0
	e.Go("checker", func(c *Ctx) {
		c.Advance(100_000) // every other thread has finished
		if len(finished) != 11 {
			t.Fatalf("%d threads finished, want 11", len(finished))
		}
		for _, p := range finished {
			if th := p.Value(); th == nil || !slices.Contains(e.freeThreads, th) {
				t.Errorf("a finished thread's record is not on the free list")
			}
		}
		for range len(finished) {
			c.Go("reuser", func(cc *Ctx) {
				if slices.ContainsFunc(finished, func(p weak.Pointer[Thread]) bool { return p.Value() == cc.t }) {
					reused++
				}
			})
		}
	})
	e.Run()
	if reused != len(finished) {
		t.Errorf("%d of %d spawns reused a finished thread's record", reused, len(finished))
	}
	if names := heldOutsideFreeList(e, finished); len(names) != 0 {
		t.Errorf("after Run: the engine holds finished threads %v outside its free list", names)
	}
	for k := range 2 {
		if name := fmt.Sprintf("lockstep%d", k); !wasStacked[name] {
			t.Errorf("%s was never stacked (stacked: %v)", name, wasStacked)
		}
	}
	if st := e.Stats(); st.LockAcquires != 2 || st.ChanBlockedSends != 1 || st.ChanBlockedRecvs != 1 || st.WaitGroupWaits != 1 {
		t.Errorf("the threads did not park as intended: %+v", st)
	}
	runtime.KeepAlive(m)
	runtime.KeepAlive(recvCh)
	runtime.KeepAlive(sendCh)
	runtime.KeepAlive(wg)
}

// TestFinishedOwnerKeepsItsRecord checks that a thread that finishes
// while it owns a mutex keeps its record out of the free list: the
// spawns that follow, which would otherwise reuse it, do not become the
// owner, a later thread that locks the mutex blocks, and the deadlock
// report names the original owner's slot.
func TestFinishedOwnerKeepsItsRecord(t *testing.T) {
	e := New(Config{Processors: 2})
	m := e.NewMutexAt("orphan", 0)
	e.Go("owner", func(c *Ctx) { m.Lock(c) }) // slot 0 finishes holding m
	e.Go("spawner", func(c *Ctx) {
		c.Advance(100) // the owner has finished
		for range 3 {
			c.Go("short", func(cc *Ctx) { cc.Advance(1) })
			c.Advance(100)
		}
		c.Go("locker", func(cc *Ctx) {
			m.Lock(cc)
			t.Error("locker acquired a mutex that a finished thread owns")
		})
	})
	msg, _ := runRecovered(e).(string)
	for _, want := range []string{
		"  thread 5 \"locker\" state=3 ",
		"  mutex \"orphan\" held by 0 with 1 waiters\n",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock report:\n%s\nwant it to contain %q", msg, want)
		}
	}
}

// TestStatsMidRun checks that Stats called during a run counts both the
// threads that have finished and the ones still running, and that the
// final Stats equals the sum of the counters every thread recorded.
func TestStatsMidRun(t *testing.T) {
	s := newScenario(Config{Processors: 2})
	m := s.NewMutexAt("m", 0)
	work := func(c *Ctx) {
		m.Lock(c)
		c.CAS(0x40, 0, 1)
		m.Unlock(c)
		for range 8 { // 5 threads on 2 CPUs: they migrate
			c.Advance(migrationPeriod / 4)
		}
	}
	for i := range 4 {
		s.Go(fmt.Sprintf("short%d", i), work)
	}
	var mid Stats
	s.Go("long", func(c *Ctx) {
		work(c)
		c.Advance(20 * migrationPeriod) // the short threads finish meanwhile
		mid = s.Stats()
		c.Advance(100)
	})
	s.Run()
	if mid.LockAcquires != 5 || mid.AtomicCAS != 5 {
		t.Errorf("mid-run Stats counts %d lock acquires and %d CAS, want 5 each", mid.LockAcquires, mid.AtomicCAS)
	}
	var sum Stats
	for _, end := range s.bySlot() {
		sum.LockAcquires += end.counters.LockAcquires
		sum.LockWaitTime += end.counters.LockWaitTime
		sum.Migrations += end.counters.Migrations
		sum.AtomicCAS += end.counters.AtomicCAS
		sum.AtomicCASFailed += end.counters.AtomicCASFailed
	}
	st := s.Stats()
	if sum.LockAcquires != st.LockAcquires || sum.Migrations != st.Migrations || sum.AtomicCAS != st.AtomicCAS ||
		sum.AtomicCASFailed != st.AtomicCASFailed || sum.LockWaitTime != st.LockWaitTime {
		t.Errorf("Stats %+v disagrees with the per-thread sum %+v", st, sum)
	}
	if st.Migrations == 0 || st.LockContended == 0 {
		t.Errorf("Stats %+v: want migrations and contended locks to be counted", st)
	}
	if mid.Migrations == 0 || mid.Migrations > st.Migrations {
		t.Errorf("mid-run migrations %d, final %d", mid.Migrations, st.Migrations)
	}
}

// TestDeadlockReportAfterRetirements checks that the deadlock report
// names every blocked thread, in slot order, after threads that
// finished earlier have left the engine's live set out of order.
func TestDeadlockReportAfterRetirements(t *testing.T) {
	e := New(Config{Processors: 2})
	a, b := e.NewMutexAt("a", 0), e.NewMutexAt("b", 0)
	never := e.NewWaitGroup()
	never.Add(1)
	short := func(c *Ctx) { c.Advance(10) }
	e.Go("short0", short)
	e.Go("ab", func(c *Ctx) {
		a.Lock(c)
		c.Advance(50)
		b.Lock(c)
	})
	e.Go("short2", short)
	e.Go("ba", func(c *Ctx) {
		b.Lock(c)
		c.Advance(50)
		a.Lock(c)
	})
	e.Go("waiter", func(c *Ctx) { never.Wait(c) })
	e.Go("short5", short)
	msg, _ := runRecovered(e).(string)
	want := "sim: deadlock — no runnable thread\n" +
		"  thread 1 \"ab\" state=3 clock=114\n" +
		"  thread 3 \"ba\" state=3 clock=114\n" +
		"  thread 4 \"waiter\" state=3 clock=0\n"
	if !strings.HasPrefix(msg, want) {
		t.Errorf("deadlock report:\n%s\nwant it to begin:\n%s", msg, want)
	}
	if strings.Contains(msg, "short") {
		t.Errorf("deadlock report names a finished thread:\n%s", msg)
	}
}
