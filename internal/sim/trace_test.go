package sim

import (
	"fmt"
	"strings"
	"testing"
)

func TestTracerRecordsLifecycleAndLocks(t *testing.T) {
	rec := &Recorder{}
	cfg := Config{Processors: 2, Tracer: rec}
	e := New(cfg)
	m := e.NewMutexAt("m", 0)
	e.Go("a", func(c *Ctx) {
		m.Lock(c)
		c.Advance(1000)
		m.Unlock(c)
	})
	e.Go("b", func(c *Ctx) {
		m.Lock(c)
		c.Advance(10)
		m.Unlock(c)
	})
	e.Run()

	counts := map[EventKind]int{}
	for _, ev := range rec.Events {
		counts[ev.Kind]++
	}
	if counts[EvThreadStart] != 2 || counts[EvThreadDone] != 2 {
		t.Errorf("lifecycle events = %d/%d, want 2/2", counts[EvThreadStart], counts[EvThreadDone])
	}
	if counts[EvLockAcquire] != 2 || counts[EvLockRelease] != 2 {
		t.Errorf("lock events = %d/%d, want 2/2", counts[EvLockAcquire], counts[EvLockRelease])
	}
	if counts[EvLockContended] != 1 {
		t.Errorf("contended events = %d, want 1", counts[EvLockContended])
	}

	// Event times must be non-decreasing per thread.
	last := map[int]int64{}
	for _, ev := range rec.Events {
		if ev.Time < last[ev.Thread] {
			t.Fatalf("time went backwards for thread %d: %d after %d", ev.Thread, ev.Time, last[ev.Thread])
		}
		last[ev.Thread] = ev.Time
	}

	tl := rec.Timeline()
	for _, want := range []string{"start", "lock", "lock-wait", "unlock", "done", "m"} {
		if !strings.Contains(tl, want) {
			t.Errorf("timeline missing %q:\n%s", want, tl)
		}
	}
}

func TestRecorderBound(t *testing.T) {
	rec := &Recorder{Max: 3}
	e := New(Config{Processors: 1, Tracer: rec})
	m := e.NewMutexAt("m", 0)
	e.Go("w", func(c *Ctx) {
		for i := 0; i < 10; i++ {
			m.Lock(c)
			m.Unlock(c)
		}
	})
	e.Run()
	if len(rec.Events) != 3 {
		t.Errorf("events = %d, want 3 (bounded)", len(rec.Events))
	}
	if rec.Dropped == 0 {
		t.Error("no drops counted")
	}
	if !strings.Contains(rec.Timeline(), "dropped") {
		t.Error("timeline does not mention drops")
	}
}

func TestSpawnTraced(t *testing.T) {
	rec := &Recorder{}
	e := New(Config{Processors: 2, Tracer: rec})
	e.Go("main", func(c *Ctx) {
		c.Go("child", func(cc *Ctx) { cc.Advance(10) })
	})
	e.Run()
	var sawSpawn bool
	for _, ev := range rec.Events {
		if ev.Kind == EvSpawn && ev.Detail == "child" {
			sawSpawn = true
		}
	}
	if !sawSpawn {
		t.Error("spawn not traced")
	}
}

func TestNoTracerNoOverheadPath(t *testing.T) {
	// Just exercises the nil-tracer branch for coverage/sanity.
	e := New(Config{Processors: 1})
	e.Go("w", func(c *Ctx) { c.Advance(5) })
	if e.Run() != 5 {
		t.Fatal("bad makespan")
	}
}

// countTracer counts the events it receives.
type countTracer struct{ n int }

func (c *countTracer) Event(Event) { c.n++ }

func TestNewTeeDropsNil(t *testing.T) {
	var nilRec *Recorder
	if tr := NewTee(); tr != nil {
		t.Errorf("NewTee() = %v, want nil", tr)
	}
	if tr := NewTee(nil, nilRec); tr != nil {
		t.Errorf("NewTee of nil entries = %v, want nil (the engine's detached path)", tr)
	}
	a := &countTracer{}
	if tr := NewTee(nil, a, nilRec); tr != Tracer(a) {
		t.Errorf("NewTee with one live entry = %v, want that entry", tr)
	}
	b := &countTracer{}
	nested := NewTee(a, NewTee(nilRec, b, &countTracer{}))
	nested.Event(Event{Kind: EvSpawn})
	if a.n != 1 || b.n != 1 {
		t.Errorf("nested tee delivered %d/%d events, want one each", a.n, b.n)
	}
}

// TestRecorderDefaultMask: a zero Mask keeps exactly the 26 machine
// kinds; the observation kinds appended after them are ignored without
// counting as dropped, so Max bounds only what the exports show.
func TestRecorderDefaultMask(t *testing.T) {
	if MachineEvents != MaskOf(EvThreadStart, EvThreadDone, EvSpawn, EvLockAcquire, EvLockContended,
		EvLockRelease, EvMigrate, EvLockHandoff, EvPreempt, EvAlloc, EvFree, EvPoolHit, EvPoolMiss,
		EvShadowReuse, EvShadowMiss, EvCacheInval, EvCacheRFO, EvChanSend, EvChanRecv, EvChanBlocked,
		EvWaitGroupWait, EvWaitGroupDone, EvAtomicCAS, EvAtomicFAA, EvAtomicLoad, EvAtomicStore) {
		t.Errorf("MachineEvents = %b is not the 26 machine kinds", MachineEvents)
	}
	rec := &Recorder{Max: 2}
	for k := EventKind(0); int(k) < NumEventKinds; k++ {
		rec.Event(Event{Kind: k})
		if k.String() == fmt.Sprintf("EventKind(%d)", int(k)) {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	if len(rec.Events) != 2 || rec.Dropped != 24 {
		t.Errorf("kept %d, dropped %d; want 2 kept and the other 24 machine events dropped", len(rec.Events), rec.Dropped)
	}
	for k := EvEnter; int(k) < NumEventKinds; k++ {
		if rec.DroppedByKind[k] != 0 {
			t.Errorf("observation kind %v counted as dropped", k)
		}
	}
	all := &Recorder{Mask: AllEvents}
	all.Event(Event{Kind: EvHeapAlloc})
	if len(all.Events) != 1 {
		t.Error("AllEvents mask did not record an observation kind")
	}
}

// TestEmitStampsThreadTimeAndPayload: Ctx.Emit fills in the calling
// thread's clock, slot and CPU and keeps the caller's payload.
func TestEmitStampsThreadTimeAndPayload(t *testing.T) {
	rec := &Recorder{Mask: AllEvents}
	e := New(Config{Processors: 2, Tracer: rec})
	e.Go("w", func(c *Ctx) {
		c.Advance(7)
		c.Emit(Event{Kind: EvHeapAlloc, Site: "f@1", Arg1: 32, Arg2: 0x40, Arg3: 20, Time: -1, Thread: -1})
	})
	e.Run()
	var got []Event
	for _, ev := range rec.Events {
		if ev.Kind == EvHeapAlloc {
			got = append(got, ev)
		}
	}
	if len(got) != 1 {
		t.Fatalf("recorded %d heap-alloc events, want 1", len(got))
	}
	want := Event{Time: 7, Thread: 0, CPU: got[0].CPU, Kind: EvHeapAlloc, Site: "f@1", Arg1: 32, Arg2: 0x40, Arg3: 20}
	if got[0] != want || got[0].CPU < 0 {
		t.Errorf("emitted %+v, want %+v", got[0], want)
	}
}
