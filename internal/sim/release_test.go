package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"weak"
)

// TestFinishedThreadsAreCollected checks that the engine keeps no
// reference to a finished thread: once its spawner has dropped the
// handle, the garbage collector reclaims it while the engine, its
// mutex, channels and waitgroup are all still reachable. Each thread
// below has passed through one of the queues that park threads (mutex
// waiters, channel receivers and senders, waitgroup waiters), and one
// was spawned from inside the run, so each queue must let go of the
// threads it has woken. The lockstep threads were stacked inside
// another thread's scheduling loop before they finished, so neither
// the loop nor the unwind target may keep them either.
func TestFinishedThreadsAreCollected(t *testing.T) {
	e := New(Config{Processors: 2})
	m := e.NewMutexAt("m", 0)
	recvCh, sendCh := e.NewChannel("recv", 1), e.NewChannel("send", 1)
	wg := e.NewWaitGroup()
	wg.Add(1)
	var dropped []weak.Pointer[Thread]
	drop := func(th *Thread) { dropped = append(dropped, weak.Make(th)) }

	drop(e.Go("holder", func(c *Ctx) {
		m.Lock(c)
		c.Advance(100)
		m.Unlock(c)
	}))
	drop(e.Go("lock-waiter", func(c *Ctx) {
		c.Advance(10)
		m.Lock(c) // parks in m.waiters
		m.Unlock(c)
	}))
	drop(e.Go("receiver", func(c *Ctx) { recvCh.Recv(c) })) // parks in recvQ
	drop(e.Go("sender", func(c *Ctx) {
		c.Advance(100)
		recvCh.Send(c, 1)
		sendCh.Send(c, 1)
		sendCh.Send(c, 2) // the buffer is full: parks in sendQ
	}))
	drop(e.Go("drainer", func(c *Ctx) {
		c.Advance(1_000)
		sendCh.Recv(c)
		sendCh.Recv(c)
	}))
	drop(e.Go("joiner", func(c *Ctx) { wg.Wait(c) })) // parks in wg.waiters
	drop(e.Go("spawner", func(c *Ctx) {
		c.Advance(100)
		drop(c.Go("child", func(cc *Ctx) {
			cc.Advance(50)
			wg.Done(cc)
		}))
	}))
	// Each lockstep step preempts, and the thread resumes the next one
	// from its own scheduling loop, which stacks it. Only the lockstep
	// threads look, so the first two are seen stacked.
	wasStacked := map[string]bool{}
	for k := range 3 {
		drop(e.Go(fmt.Sprintf("lockstep%d", k), func(c *Ctx) {
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
	live := func() []string {
		runtime.GC()
		var names []string
		for _, p := range dropped {
			if th := p.Value(); th != nil {
				names = append(names, th.name)
			}
		}
		return names
	}
	e.Go("checker", func(c *Ctx) {
		c.Advance(100_000) // every other thread has finished
		if names := live(); len(names) != 0 {
			t.Errorf("mid-run: the engine still holds finished threads %v", names)
		}
	})
	e.Run()
	if names := live(); len(names) != 0 {
		t.Errorf("after Run: the engine still holds finished threads %v", names)
	}
	if len(dropped) != 11 {
		t.Fatalf("%d threads dropped, want 11", len(dropped))
	}
	for k := range 2 {
		if name := fmt.Sprintf("lockstep%d", k); !wasStacked[name] {
			t.Errorf("%s was never stacked (stacked: %v)", name, wasStacked)
		}
	}
	if st := e.Stats(); st.LockAcquires != 2 || st.ChanBlockedSends != 1 || st.ChanBlockedRecvs != 1 || st.WaitGroupWaits != 1 {
		t.Errorf("the threads did not park as intended: %+v", st)
	}
	runtime.KeepAlive(e)
}

// TestStatsMidRun checks that Stats called during a run counts both the
// threads that have finished and the ones still running, and that the
// final Stats equals the sum over every thread's handle.
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
	for _, th := range s.bySlot() {
		sum.addThread(th)
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
