package sim

import (
	"testing"
)

func TestRingRecorderKeepsLatest(t *testing.T) {
	rec := &Recorder{Max: 4, Ring: true, Mask: MaskOf(EvLockAcquire)}
	e := New(Config{Processors: 1, Tracer: rec})
	m := e.NewMutexAt("m", 0)
	e.Go("w", func(c *Ctx) {
		for i := 0; i < 10; i++ {
			m.Lock(c)
			m.Unlock(c)
		}
	})
	e.Run()
	snap := rec.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("retained %d events, want 4", len(snap))
	}
	if rec.Dropped != 6 {
		t.Errorf("Dropped = %d, want 6", rec.Dropped)
	}
	if rec.DroppedByKind[EvLockAcquire] != 6 {
		t.Errorf("DroppedByKind[lock] = %d, want 6", rec.DroppedByKind[EvLockAcquire])
	}
	// Keep-latest: snapshot must be in time order and end with the last
	// acquire, not the first.
	for i := 1; i < len(snap); i++ {
		if snap[i].Time < snap[i-1].Time {
			t.Fatalf("snapshot out of order at %d", i)
		}
	}
	first := snap[0]
	all := Recorder{Mask: MaskOf(EvLockAcquire)}
	e2 := New(Config{Processors: 1, Tracer: &all})
	m2 := e2.NewMutexAt("m", 0)
	e2.Go("w", func(c *Ctx) {
		for i := 0; i < 10; i++ {
			m2.Lock(c)
			m2.Unlock(c)
		}
	})
	e2.Run()
	if want := all.Events[6]; first.Time != want.Time {
		t.Errorf("ring kept event at t=%d first, want t=%d (the 7th acquire)", first.Time, want.Time)
	}
}

func TestKeepEarliestCountsDroppedKinds(t *testing.T) {
	rec := &Recorder{Max: 2, Mask: MaskOf(EvLockAcquire, EvLockRelease)}
	e := New(Config{Processors: 1, Tracer: rec})
	m := e.NewMutexAt("m", 0)
	e.Go("w", func(c *Ctx) {
		for i := 0; i < 3; i++ {
			m.Lock(c)
			m.Unlock(c)
		}
	})
	e.Run()
	// 6 events total, 2 retained (lock, unlock); dropped: 2 locks, 2 unlocks.
	if rec.Dropped != 4 {
		t.Fatalf("Dropped = %d, want 4", rec.Dropped)
	}
	if rec.DroppedByKind[EvLockAcquire] != 2 || rec.DroppedByKind[EvLockRelease] != 2 {
		t.Errorf("DroppedByKind = lock:%d unlock:%d, want 2/2",
			rec.DroppedByKind[EvLockAcquire], rec.DroppedByKind[EvLockRelease])
	}
}

func TestTraceMaskFilters(t *testing.T) {
	rec := &Recorder{Mask: MaskOf(EvLockContended)}
	e := New(Config{Processors: 2, Tracer: rec})
	m := e.NewMutexAt("m", 0)
	for i := 0; i < 2; i++ {
		e.Go("w", func(c *Ctx) {
			m.Lock(c)
			c.Advance(1000)
			m.Unlock(c)
		})
	}
	e.Run()
	if len(rec.Events) != 1 {
		t.Fatalf("got %d events, want only the contended one:\n%s", len(rec.Events), rec.Timeline())
	}
	if rec.Events[0].Kind != EvLockContended {
		t.Errorf("kind = %v, want lock-wait", rec.Events[0].Kind)
	}
}

func TestHandoffTraced(t *testing.T) {
	rec := &Recorder{}
	e := New(Config{Processors: 2, Tracer: rec})
	m := e.NewMutexAt("m", 0)
	for i := 0; i < 2; i++ {
		e.Go("w", func(c *Ctx) {
			m.Lock(c)
			c.Advance(1000)
			m.Unlock(c)
		})
	}
	e.Run()
	var handoffs int
	for _, ev := range rec.Events {
		if ev.Kind == EvLockHandoff {
			handoffs++
			if ev.Detail != "m" {
				t.Errorf("handoff names %q, want m", ev.Detail)
			}
		}
	}
	if handoffs != 1 {
		t.Errorf("handoffs = %d, want 1 (one waiter woken)", handoffs)
	}
}

func TestPreemptTraced(t *testing.T) {
	rec := &Recorder{Max: 1_000_000}
	e := New(Config{Processors: 1, Tracer: rec})
	for i := 0; i < 2; i++ {
		e.Go("w", func(c *Ctx) {
			for j := 0; j < 50_000; j++ {
				c.Work(1)
			}
		})
	}
	e.Run()
	var preempts int
	for _, ev := range rec.Events {
		if ev.Kind == EvPreempt {
			preempts++
		}
	}
	if preempts == 0 {
		t.Error("two threads sharing one CPU produced no preempt events")
	}
}

// TestStatsChannelWaitGroupHandCounted pins the folded channel and
// waitgroup counters on a scenario whose operation counts are knowable
// by hand: a producer pushes 3 values through a capacity-1 channel to
// a consumer that is always far behind (so exactly sends 2 and 3 park),
// while main waits on a WaitGroup of two.
func TestStatsChannelWaitGroupHandCounted(t *testing.T) {
	e := New(Config{Processors: 4})
	ch := e.NewChannel("pipe", 1)
	wg := e.NewWaitGroup()
	wg.Add(2)
	e.Go("main", func(c *Ctx) {
		c.Go("producer", func(c *Ctx) {
			for i := 0; i < 3; i++ {
				ch.Send(c, i)
			}
			wg.Done(c)
		})
		c.Go("consumer", func(c *Ctx) {
			for i := 0; i < 3; i++ {
				c.Advance(50_000) // stay far behind the producer
				if v, ok := ch.Recv(c); !ok || v.(int) != i {
					panic("bad receive")
				}
			}
			wg.Done(c)
		})
		wg.Wait(c)
	})
	e.Run()
	st := e.Stats()
	if st.ChanSends != 3 || st.ChanRecvs != 3 {
		t.Errorf("sends/recvs = %d/%d, want 3/3", st.ChanSends, st.ChanRecvs)
	}
	// Send 1 buffers; sends 2 and 3 find the buffer full and park. The
	// consumer never parks: each receive refills the buffer from the
	// parked sender synchronously.
	if st.ChanBlockedSends != 2 {
		t.Errorf("blocked sends = %d, want 2", st.ChanBlockedSends)
	}
	if st.ChanBlockedRecvs != 0 {
		t.Errorf("blocked recvs = %d, want 0", st.ChanBlockedRecvs)
	}
	if st.WaitGroupWaits != 1 || st.WaitGroupDones != 2 {
		t.Errorf("wg waits/dones = %d/%d, want 1/2", st.WaitGroupWaits, st.WaitGroupDones)
	}
}

// TestStatsCacheInvalidationsHandCounted drives two CPUs through a
// fixed write/read interleaving on one shared line and checks the
// invalidation and RFO counts event by event:
//
//	A writes @0       (cold miss, A owns v1)
//	B reads  @5000    (cold miss — no invalidation, B saw nothing before)
//	A writes @10000   (hit: A's own write refreshed its entry; no RFO)
//	B reads  @15000   (miss, B held v1 → invalidation #1)
//	B writes @15000+ε (hit, but A owns the line → RFO #1)
//	A reads  @30000   (miss, A held v2 → invalidation #2)
func TestStatsCacheInvalidationsHandCounted(t *testing.T) {
	const addr = 1 << 20
	e := New(Config{Processors: 2})
	e.Go("a", func(c *Ctx) {
		c.Write(addr, 4)
		c.Advance(10_000)
		c.Write(addr, 4)
		c.Advance(20_000)
		c.Read(addr, 4)
	})
	e.Go("b", func(c *Ctx) {
		c.Advance(5_000)
		c.Read(addr, 4)
		c.Advance(10_000)
		c.Read(addr, 4)
		c.Write(addr, 4)
	})
	e.Run()
	st := e.Stats()
	if st.CacheInvalidations != 2 {
		t.Errorf("invalidations = %d, want 2", st.CacheInvalidations)
	}
	if st.CacheRFOs != 1 {
		t.Errorf("RFOs = %d, want 1", st.CacheRFOs)
	}
	if st.CacheMisses != 4 { // 2 cold + 2 invalidation refills
		t.Errorf("misses = %d, want 4", st.CacheMisses)
	}
}
