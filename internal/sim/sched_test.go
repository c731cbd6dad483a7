package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// torture builds a scenario exercising every scheduling path: mutex
// hand-off (contended and not), channel producer/consumer wake-ups,
// waitgroup joins, mid-run spawns, and oversubscription (more threads
// than processors, so migration and dilation kick in).
func torture(cfg Config) *Engine {
	e := New(cfg)
	m := e.NewMutexAt("shared", 1<<20)
	ch := e.NewChannel("queue", 3)
	wg := e.NewWaitGroup()

	producers := 3
	consumers := 4
	items := 40

	for p := 0; p < producers; p++ {
		p := p
		e.Go(fmt.Sprintf("prod%d", p), func(c *Ctx) {
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
	e.Go("closer", func(c *Ctx) {
		// Spawn consumers mid-run, then close the channel when the
		// producers are done (tracked coarsely by item count).
		for k := 0; k < consumers; k++ {
			wg.Add(1)
			k := k
			c.Go(fmt.Sprintf("cons%d", k), func(cc *Ctx) {
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
		e.Go(fmt.Sprintf("bg%d", b), func(c *Ctx) {
			for i := 0; i < 200; i++ {
				c.Advance(97)
				c.Read(uint64(3<<20)+uint64(i%16)*64, 8)
			}
		})
	}
	return e
}

// TestHeapSchedulerMatchesLinearScan pins the heap scheduler to the
// pre-heap reference implementation: identical makespan and aggregate
// statistics, on both the Exact and the lease configuration.
func TestHeapSchedulerMatchesLinearScan(t *testing.T) {
	for _, exact := range []bool{false, true} {
		cfg := Config{Processors: 4, Exact: exact}
		cfg.linearScan = true
		ref := torture(cfg)
		refMakespan := ref.Run()
		refStats := ref.Stats()

		cfg.linearScan = false
		heap := torture(cfg)
		heapMakespan := heap.Run()
		heapStats := heap.Stats()

		if heapMakespan != refMakespan {
			t.Errorf("exact=%v: makespan %d (heap) != %d (linear scan)", exact, heapMakespan, refMakespan)
		}
		if heapStats != refStats {
			t.Errorf("exact=%v: stats diverge\nheap: %+v\nscan: %+v", exact, heapStats, refStats)
		}
		for i := range heap.Threads() {
			if hc, rc := heap.Threads()[i].Clock(), ref.Threads()[i].Clock(); hc != rc {
				t.Errorf("exact=%v: thread %d completion %d != %d", exact, i, hc, rc)
			}
		}
	}
}

// TestExactMatchesLeaseOnTorture checks the lease fast path against the
// always-yield mode on the scheduling-heavy scenario: the lease is a
// pure host-side optimization, so virtual time must not move.
func TestExactMatchesLeaseOnTorture(t *testing.T) {
	lease := torture(Config{Processors: 4})
	exact := torture(Config{Processors: 4, Exact: true})
	lm, em := lease.Run(), exact.Run()
	// Cache-access batching inside a lease window can move line
	// ownership slightly; everything else is identical (see doc.go).
	ratio := float64(lm) / float64(em)
	if ratio < 0.98 || ratio > 1.02 {
		t.Errorf("lease makespan %d vs exact %d (ratio %.4f)", lm, em, ratio)
	}
}

// TestMakespanMatchesScan pins the O(1) running-max Makespan to the
// O(threads) scan it replaced, on the scheduling-heavy torture
// scenario under both schedulers and both lease modes.
func TestMakespanMatchesScan(t *testing.T) {
	for _, linear := range []bool{false, true} {
		for _, exact := range []bool{false, true} {
			cfg := Config{Processors: 4, Exact: exact}
			cfg.linearScan = linear
			e := torture(cfg)
			got := e.Run()
			if want := e.scanMakespan(); got != want {
				t.Errorf("linear=%v exact=%v: Makespan() %d != scan %d", linear, exact, got, want)
			}
			if got != e.Makespan() {
				t.Errorf("linear=%v exact=%v: Run result %d != Makespan() %d", linear, exact, got, e.Makespan())
			}
		}
	}
}

// TestMakespanMidRun checks the running max is also exact while the
// simulation is still in flight (observability samplers read it).
func TestMakespanMidRun(t *testing.T) {
	e := New(Config{Processors: 2})
	checks := 0
	for w := 0; w < 4; w++ {
		e.Go("w", func(c *Ctx) {
			for i := 0; i < 50; i++ {
				c.Advance(int64(10 + w*7))
				if got, want := e.Makespan(), e.scanMakespan(); got != want {
					t.Errorf("mid-run Makespan() %d != scan %d", got, want)
				}
				checks++
			}
		})
	}
	e.Run()
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
		m := e.NewMutex("m")
		e.Go("holder", func(c *Ctx) {
			m.Lock(c)
			c.Advance(1_000_000) // preempted while holding m
			m.Unlock(c)
		})
		e.Go("waiter", func(c *Ctx) { m.Lock(c) })
		e.Go("short", func(c *Ctx) { c.Advance(10) })
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
		a, b := e.NewMutex("a"), e.NewMutex("b")
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
		e.Go("short", func(c *Ctx) { c.Advance(10) })
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
	var slots []int
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
		m := e.NewMutex("hot")
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
		e := New(Config{Processors: 8, MigrationPeriod: 10_000})
		for w := 0; w < 32; w++ {
			e.Go("w", func(c *Ctx) {
				for j := 0; j < 100; j++ {
					c.Advance(997)
				}
			})
		}
		e.Run()
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
