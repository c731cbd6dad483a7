package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// torture builds a scenario exercising every scheduling path: mutex
// hand-off (contended and not), channel producer/consumer wake-ups,
// waitgroup joins, mid-run spawns, and oversubscription (more threads
// than processors, so migration and dilation kick in).
func torture(cfg Config) *scenario {
	s := newScenario(cfg)
	m := s.NewMutexAt("shared", 1<<20)
	ch := s.NewChannel("queue", 3)
	wg := s.NewWaitGroup()

	producers := 3
	consumers := 4
	items := 40

	for p := 0; p < producers; p++ {
		p := p
		s.Go(fmt.Sprintf("prod%d", p), func(c *Ctx) {
			for i := 0; i < items; i++ {
				c.Work(7 + int64(p))
				ch.Send(c, p*1000+i)
				if i%8 == p {
					m.Lock(c)
					c.Advance(50)
					m.Unlock(c)
				}
			}
		})
	}
	s.Go("closer", func(c *Ctx) {
		// Spawn consumers mid-run, then close the channel when the
		// producers are done (tracked coarsely by item count).
		for k := 0; k < consumers; k++ {
			wg.Add(1)
			k := k
			s.spawn(c, fmt.Sprintf("cons%d", k), func(cc *Ctx) {
				for {
					got, ok := ch.Recv(cc)
					if !ok {
						break
					}
					v := got.(int)
					cc.Work(11 + int64(v%5))
					if v%3 == 0 {
						if m.TryLock(cc) {
							cc.Advance(20)
							m.Unlock(cc)
						}
					}
					cc.Write(uint64(2<<20)+uint64(k)*8, 8)
				}
				wg.Done(cc)
			})
		}
		for ch.Recvs+int64(ch.Len()) < int64(producers*items) {
			c.Advance(500)
		}
		ch.Close(c)
		wg.Wait(c)
	})
	// CPU-bound background threads to oversubscribe the 4 processors.
	for b := 0; b < 6; b++ {
		s.Go(fmt.Sprintf("bg%d", b), func(c *Ctx) {
			for i := 0; i < 200; i++ {
				c.Advance(97)
				c.Read(uint64(3<<20)+uint64(i%16)*64, 8)
			}
		})
	}
	return s
}

// lockstep builds n threads that each charge Work(1) per step from
// the same start time. Their clocks stay tied, so every step expires
// the lease and preempts: the pure handoff path.
func lockstep(cfg Config, n, steps int) *scenario {
	s := newScenario(cfg)
	for w := 0; w < n; w++ {
		s.Go(fmt.Sprintf("step%d", w), func(c *Ctx) {
			for j := 0; j < steps; j++ {
				c.Work(1)
				c.Write(uint64(1<<20)+uint64(j%4)*64, 8)
			}
		})
	}
	return s
}

// TestMakespanMatchesScan pins the O(1) running-max Makespan to an
// O(threads) scan, on the scheduling-heavy torture scenario under the
// engine and under the linear-scan reference.
func TestMakespanMatchesScan(t *testing.T) {
	for _, linear := range []bool{false, true} {
		s := torture(Config{Processors: 4})
		e := s.Engine
		var m int64
		if linear {
			m = runLinear(e)
		} else {
			m = e.Run()
		}
		if want := scanMakespan(s); m != want {
			t.Errorf("linear=%v: Makespan() %d != scan %d", linear, m, want)
		}
		if m != e.Makespan() {
			t.Errorf("linear=%v: Run result %d != Makespan() %d", linear, m, e.Makespan())
		}
	}
}

// TestMakespanMidRun checks the running max is also exact while the
// simulation is still in flight (observability samplers read it).
func TestMakespanMidRun(t *testing.T) {
	s := newScenario(Config{Processors: 2})
	checks := 0
	for w := 0; w < 4; w++ {
		s.Go("w", func(c *Ctx) {
			for i := 0; i < 50; i++ {
				c.Advance(int64(10 + w*7))
				if got, want := s.Makespan(), scanMakespan(s); got != want {
					t.Errorf("mid-run Makespan() %d != scan %d", got, want)
				}
				checks++
			}
		})
	}
	s.Run()
	if checks == 0 {
		t.Fatal("no mid-run checks executed")
	}
}

// TestWorkerPoolRecycles verifies that short-lived simulated threads
// reuse pooled goroutines instead of spawning one each: a churn of
// sequentially-overlapping children must be served by a bounded worker
// set.
func TestWorkerPoolRecycles(t *testing.T) {
	e := New(Config{Processors: 4})
	const churn = 2000
	e.Go("spawner", func(c *Ctx) {
		for i := 0; i < churn; i++ {
			c.Go("child", func(cc *Ctx) {
				cc.Work(20)
			})
			c.Advance(500)
		}
	})
	e.Run()
	if e.workersSpawned+e.workersReused == 0 {
		t.Fatal("no workers were ever bound")
	}
	if e.workersSpawned > churn/10 {
		t.Errorf("spawned %d workers for %d threads; pool is not recycling (reused %d)",
			e.workersSpawned, churn, e.workersReused)
	}
	if e.workersReused < churn/2 {
		t.Errorf("only %d of %d threads reused a pooled worker", e.workersReused, churn)
	}
}

// runRecovered runs e and returns the value Run panicked with, or nil.
func runRecovered(e *Engine) (r any) {
	defer func() { r = recover() }()
	e.Run()
	return nil
}

// TestAbnormalExitsLeakNoGoroutines checks that a thread panic and a
// deadlock each stop every worker coroutine: the ones suspended
// mid-thread (preempted or blocked on a lock) as well as the idle ones.
func TestAbnormalExitsLeakNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		e := New(Config{Processors: 2})
		m := e.NewMutexAt("m", 0)
		e.Go("holder", func(c *Ctx) {
			m.Lock(c)
			c.Advance(1_000_000) // preempted while holding m
			m.Unlock(c)
		})
		e.Go("waiter", func(c *Ctx) { m.Lock(c) })
		e.Go("done", func(c *Ctx) {}) // retires before any receiver runs
		e.Go("crash", func(c *Ctx) {
			c.Advance(100)
			var s []int
			_ = s[c.ThreadID()] // a runtime.Error
		})
		msg, _ := runRecovered(e).(string)
		if !strings.Contains(msg, "index out of range") || !strings.Contains(msg, "[simulated-thread stack]") {
			t.Fatalf("run %d: re-raised panic lost its message or stack:\n%s", i, msg)
		}
	}
	for i := 0; i < 100; i++ {
		e := New(Config{Processors: 2})
		a, b := e.NewMutexAt("a", 0), e.NewMutexAt("b", 0)
		e.Go("ab", func(c *Ctx) {
			a.Lock(c)
			c.Advance(50)
			b.Lock(c)
		})
		e.Go("ba", func(c *Ctx) {
			b.Lock(c)
			c.Advance(50)
			a.Lock(c)
		})
		e.Go("done", func(c *Ctx) {}) // retires before any receiver runs
		msg, _ := runRecovered(e).(string)
		if !strings.HasPrefix(msg, "sim: deadlock") {
			t.Fatalf("run %d: want a deadlock report, got %q", i, msg)
		}
	}
	// Goroutines started elsewhere may exit meanwhile; none may stay.
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before 200 aborted runs, %d after", before, after)
	}
}

// stackedWorkers counts the workers stacked inside a scheduling loop.
func stackedWorkers(e *Engine) int {
	n := 0
	for _, w := range e.workers {
		if w.stacked {
			n++
		}
	}
	return n
}

// TestStackedPanicIsReraised checks that a thread panic raised three
// levels up the stack of scheduling loops reaches Run: the lockstep
// threads before the crashing one each preempt and resume the next
// from their own loop, so three workers are stacked when it starts. A
// runtime error comes back with the simulated thread's stack attached,
// a typed value untouched, and no worker goroutine outlives either run.
func TestStackedPanicIsReraised(t *testing.T) {
	before := runtime.NumGoroutine()
	sentinel := &struct{ name string }{"sentinel"}
	for i := 0; i < 20; i++ {
		typed := i%2 == 1
		e := New(Config{Processors: 8})
		depth := -1
		for k := range 4 {
			e.Go(fmt.Sprintf("step%d", k), func(c *Ctx) {
				if k == 3 {
					depth = stackedWorkers(e)
					if typed {
						panic(sentinel)
					}
					var s []int
					_ = s[c.ThreadID()] // a runtime.Error
				}
				for range 10 {
					c.Work(1)
				}
			})
		}
		r := runRecovered(e)
		if depth != 3 {
			t.Fatalf("run %d: the crashing thread started over %d stacked workers, want 3", i, depth)
		}
		if typed {
			if r != sentinel {
				t.Fatalf("run %d: Run re-raised %v, want the thread's own value", i, r)
			}
			continue
		}
		msg, _ := r.(string)
		if !strings.Contains(msg, "index out of range") || !strings.Contains(msg, "[simulated-thread stack]") ||
			!strings.Contains(msg, "TestStackedPanicIsReraised") {
			t.Fatalf("run %d: re-raised panic lost its message or stack:\n%s", i, msg)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before 20 aborted runs, %d after", before, after)
	}
}

// TestStackedDeadlockReport checks that a deadlock reached while
// threads are stacked is reported by Run and names every unfinished
// thread: each receiver blocks on a channel nobody sends to and
// resumes the next from its own scheduling loop, so the last one finds
// nothing ready over three stacked workers, and the deadlock passes
// down through every level to Run. No worker goroutine outlives the
// runs.
func TestStackedDeadlockReport(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		e := New(Config{Processors: 8})
		ch := e.NewChannel("never", 1)
		depth := -1
		e.Go("done", func(c *Ctx) {}) // retires before any receiver runs
		for k := range 4 {
			e.Go(fmt.Sprintf("recv%d", k), func(c *Ctx) {
				if k == 3 {
					depth = stackedWorkers(e)
				}
				ch.Recv(c)
			})
		}
		msg, _ := runRecovered(e).(string)
		if depth != 3 {
			t.Fatalf("run %d: the last receiver started over %d stacked workers, want 3", i, depth)
		}
		want := "sim: deadlock — no runnable thread\n" +
			"  thread 1 \"recv0\" state=3 clock=16\n" +
			"  thread 2 \"recv1\" state=3 clock=16\n" +
			"  thread 3 \"recv2\" state=3 clock=16\n" +
			"  thread 4 \"recv3\" state=3 clock=16\n"
		if msg != want {
			t.Fatalf("run %d: deadlock report:\n%s\nwant:\n%s", i, msg, want)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before 20 deadlocked runs, %d after", before, after)
	}
}

func TestReadyHeapOrdering(t *testing.T) {
	e := New(Config{Processors: 4})
	var h readyHeap
	clocks := []int64{50, 10, 30, 10, 70, 10, 20}
	for _, cl := range clocks {
		th := e.newThread("t", nil)
		th.clock = cl
		h.push(th)
	}
	var got []int64
	var slots []int32
	for h.len() > 0 {
		th := h.pop()
		got = append(got, th.clock)
		slots = append(slots, th.slot)
	}
	want := []int64{10, 10, 10, 20, 30, 50, 70}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
	// Equal clocks must come out in slot order (the scan's tiebreak).
	if !(slots[0] == 1 && slots[1] == 3 && slots[2] == 5) {
		t.Fatalf("tie slots %v, want [1 3 5 ...]", slots[:3])
	}
	if h.pop() != nil {
		t.Fatal("pop of empty heap should be nil")
	}
}

// --- Scheduler hot-path benchmarks (layer-2 wins, isolated from the
// harness parallelism of internal/bench) ---

// BenchmarkLockHandoff measures contended mutex hand-off: 8 threads
// fighting over one lock on 8 processors.
func BenchmarkLockHandoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New(Config{Processors: 8})
		m := e.NewMutexAt("hot", 0)
		for w := 0; w < 8; w++ {
			e.Go("w", func(c *Ctx) {
				for j := 0; j < 200; j++ {
					m.Lock(c)
					c.Advance(30)
					m.Unlock(c)
					c.Advance(10)
				}
			})
		}
		e.Run()
	}
}

// BenchmarkPreemptHandoff measures one preemption: lockstep threads on
// 8 processors that each charge Work(1) per step, so with their clocks
// tied every step hands the processor to the next thread.
func BenchmarkPreemptHandoff(b *testing.B) {
	for _, n := range []int{2, 8} {
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			steps := b.N/n + 1
			e := New(Config{Processors: 8})
			for w := 0; w < n; w++ {
				e.Go("w", func(c *Ctx) {
					for j := 0; j < steps; j++ {
						c.Work(1)
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}

// computeLockstep builds n threads on 8 processors that alternate
// Compute(3) with a Read of a line only they touch, from the same start
// time. Charged per unit, every step ties their clocks and preempts;
// run ahead, a thread yields only when its Sync finds another thread
// behind it.
func computeLockstep(cfg Config, n, steps int) *scenario {
	s := newScenario(cfg)
	for w := 0; w < n; w++ {
		line := uint64(1<<20) + uint64(w)*64
		s.Go(fmt.Sprintf("step%d", w), func(c *Ctx) {
			for range steps {
				c.Compute(3)
				c.Sync()
				c.Read(line, 8)
			}
		})
	}
	return s
}

// BenchmarkComputeRunAhead measures the run-ahead path on the lockstep
// shape of BenchmarkPreemptHandoff: each step is Compute(3), Sync and a
// private Read.
func BenchmarkComputeRunAhead(b *testing.B) {
	for _, n := range []int{2, 8} {
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			e := computeLockstep(Config{Processors: 8}, n, b.N/n+1)
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}

// BenchmarkThreadWake measures block/wake round-trips: a two-thread
// ping-pong over unbuffered-ish channels, the worst case for the
// scheduler (every operation blocks or wakes).
func BenchmarkThreadWake(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New(Config{Processors: 2})
		ping := e.NewChannel("ping", 1)
		pong := e.NewChannel("pong", 1)
		e.Go("a", func(c *Ctx) {
			for j := 0; j < 500; j++ {
				ping.Send(c, j)
				pong.Recv(c)
			}
		})
		e.Go("b", func(c *Ctx) {
			for j := 0; j < 500; j++ {
				ping.Recv(c)
				pong.Send(c, j)
			}
		})
		e.Run()
	}
}

// BenchmarkOversubscribedMigration measures the dilation + migration
// path: 32 CPU-bound threads on 8 processors, advancing in steps small
// enough that every thread crosses migration epochs repeatedly.
func BenchmarkOversubscribedMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New(Config{Processors: 8})
		for w := 0; w < 32; w++ {
			e.Go("w", func(c *Ctx) {
				for j := 0; j < 100; j++ {
					c.Advance(19_937)
				}
			})
		}
		if got := e.Run(); got < 20*migrationPeriod {
			b.Fatalf("makespan %d crosses fewer than 20 migration periods", got)
		}
	}
}

// benchSchedP measures raw scheduling throughput at large P: 4P
// CPU-bound threads on P processors advancing in small steps, so every
// step crosses the lease and forces a real preemption — the pure
// handoff path, at datacenter scale.
func benchSchedP(b *testing.B, procs int) {
	steps := 200_000 / (4 * procs)
	if steps < 4 {
		steps = 4
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(Config{Processors: procs})
		for w := 0; w < 4*procs; w++ {
			e.Go("w", func(c *Ctx) {
				for j := 0; j < steps; j++ {
					c.Advance(91)
				}
			})
		}
		e.Run()
	}
}

func BenchmarkSchedP64(b *testing.B)   { benchSchedP(b, 64) }
func BenchmarkSchedP1024(b *testing.B) { benchSchedP(b, 1024) }

// BenchmarkSpawnChurn measures goroutine-stack recycling: 100k
// short-lived simulated threads spawned in a rolling wave, each doing
// a sliver of work and dying. Before the worker pool this paid one
// host goroutine spawn per thread.
func BenchmarkSpawnChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(Config{Processors: 8})
		const churn = 100_000
		e.Go("spawner", func(c *Ctx) {
			for j := 0; j < churn; j++ {
				c.Go("child", func(cc *Ctx) {
					cc.Work(20)
				})
				c.Advance(300)
			}
		})
		e.Run()
	}
}

// BenchmarkUncontendedRun measures the lease self-renewal fast path:
// independent threads that never interact should almost never touch the
// host scheduler once granted a lease.
func BenchmarkUncontendedRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New(Config{Processors: 8})
		for w := 0; w < 8; w++ {
			e.Go("w", func(c *Ctx) {
				for j := 0; j < 1000; j++ {
					c.Advance(100)
				}
			})
		}
		e.Run()
	}
}

// TestRunAheadDispatches pins the number of coroutine switches the
// scheduler makes for eight lockstep threads alternating private work
// with private reads (computeLockstep), against the per-unit run a
// tracer forces. Both runs must agree on every clock; each must switch
// exactly as often as pinned, so losing run-ahead or stacked dispatch
// fails here even though no simulated result would change.
func TestRunAheadDispatches(t *testing.T) {
	var rec Recorder
	ahead := computeLockstep(Config{Processors: 8}, 8, 100)
	unit := computeLockstep(Config{Processors: 8, Tracer: &rec}, 8, 100)
	if a, u := ahead.Run(), unit.Run(); a != u {
		t.Fatalf("makespan %d (run-ahead) != %d (per unit)", a, u)
	}
	ac, uc := clocks(ahead), clocks(unit)
	for i := range ac {
		if ac[i] != uc[i] {
			t.Errorf("thread %d: clock %d (run-ahead) != %d (per unit)", i, ac[i], uc[i])
		}
	}
	const wantAhead, wantUnit = 2816, 5616
	if ahead.switches != wantAhead || unit.switches != wantUnit {
		t.Errorf("coroutine switches: %d run ahead, %d per unit; pinned %d and %d",
			ahead.switches, unit.switches, wantAhead, wantUnit)
	}
	if ahead.switches >= unit.switches {
		t.Errorf("run-ahead switched %d times, per unit %d", ahead.switches, unit.switches)
	}
}

// accessLockstep builds n threads on 8 processors that alternate
// Compute(3) with a store to one line they all write, from the same
// start time: each store pays a read-for-ownership whose price depends
// on which thread wrote last. With ahead set the store is a WriteAhead,
// after which the thread runs on into its next Compute; otherwise it is
// a Write, whose lease check yields to a tied thread at once.
func accessLockstep(cfg Config, n, steps int, ahead bool) *scenario {
	s := newScenario(cfg)
	for w := 0; w < n; w++ {
		s.Go(fmt.Sprintf("step%d", w), func(c *Ctx) {
			for range steps {
				c.Compute(3)
				c.Sync()
				if ahead {
					c.WriteAhead(1<<20, 8)
				} else {
					c.Write(1<<20, 8)
				}
			}
		})
	}
	return s
}

// TestWriteAheadDispatches pins the coroutine switches the scheduler
// makes for eight lockstep threads that alternate private work with
// stores to a shared line (accessLockstep): through WriteAhead, through
// Write, and per unit under a tracer. All three runs must agree on
// every clock and statistic, and WriteAhead must switch less often than
// Write, and Write less often than per unit.
func TestWriteAheadDispatches(t *testing.T) {
	var rec Recorder
	runs := []*scenario{
		accessLockstep(Config{Processors: 8}, 8, 100, true),
		accessLockstep(Config{Processors: 8}, 8, 100, false),
		accessLockstep(Config{Processors: 8, Tracer: &rec}, 8, 100, true),
	}
	for _, e := range runs {
		e.Run()
	}
	for k, name := range []string{"Write", "per unit"} {
		got, want := runs[0], runs[k+1]
		if got.Stats() != want.Stats() {
			t.Errorf("stats diverge\nWriteAhead: %+v\n%s: %+v", got.Stats(), name, want.Stats())
		}
		gc, wc := clocks(got), clocks(want)
		for i := range gc {
			if gc[i] != wc[i] {
				t.Errorf("thread %d: clock %d (WriteAhead) != %d (%s)", i, gc[i], wc[i], name)
			}
		}
	}
	const wantAhead, wantWrite, wantUnit = 1430, 2618, 5022
	if runs[0].switches != wantAhead || runs[1].switches != wantWrite || runs[2].switches != wantUnit {
		t.Errorf("coroutine switches: %d WriteAhead, %d Write, %d per unit; pinned %d, %d and %d",
			runs[0].switches, runs[1].switches, runs[2].switches, wantAhead, wantWrite, wantUnit)
	}
	if runs[0].switches >= runs[1].switches || runs[1].switches >= runs[2].switches {
		t.Errorf("switches: %d WriteAhead, %d Write, %d per unit", runs[0].switches, runs[1].switches, runs[2].switches)
	}
}

// TestThreadSize pins the Thread record at 176 bytes: a larger record
// measurably slowed spawn-heavy runs before records were recycled, and
// every field costs a store on each spawn, which resets a reused record.
func TestThreadSize(t *testing.T) {
	if n := unsafe.Sizeof(Thread{}); n != 176 {
		t.Errorf("Thread is %d bytes, want 176", n)
	}
}
