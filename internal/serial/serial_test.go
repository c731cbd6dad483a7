package serial

import (
	"testing"

	"amplify/internal/mem"
	"amplify/internal/sim"
)

func TestGlobalLockTakenPerOperation(t *testing.T) {
	e := sim.New(sim.Config{Processors: 2})
	a := New(e, mem.NewSpace())
	e.Go("w", func(c *sim.Ctx) {
		r1 := a.Alloc(c, 20)
		r2 := a.Alloc(c, 40)
		a.Free(c, r1)
		a.Free(c, r2)
	})
	e.Run()
	if a.Mutex(0).Acquires != 4 {
		t.Fatalf("lock acquires = %d, want 4 (one per operation)", a.Mutex(0).Acquires)
	}
}

func TestContentionUnderThreads(t *testing.T) {
	e := sim.New(sim.Config{Processors: 4})
	a := New(e, mem.NewSpace())
	for i := 0; i < 4; i++ {
		e.Go("w", func(c *sim.Ctx) {
			for j := 0; j < 50; j++ {
				r := a.Alloc(c, 20)
				a.Free(c, r)
			}
		})
	}
	e.Run()
	if a.Mutex(0).Contended == 0 {
		t.Fatal("expected contention on the global lock with 4 threads")
	}
	if a.Mutex(0).WaitTime == 0 {
		t.Fatal("expected accumulated wait time")
	}
}

func TestStatsAndUsableSize(t *testing.T) {
	e := sim.New(sim.Config{Processors: 1})
	a := New(e, mem.NewSpace())
	e.Go("w", func(c *sim.Ctx) {
		r := a.Alloc(c, 20)
		if got := a.UsableSize(r); got != 32 {
			t.Errorf("usable = %d, want 32 (16-byte classes)", got)
		}
		st := a.Stats()
		if st.LiveBytes != 32 || st.PeakBytes != 32 {
			t.Errorf("stats = %+v", st)
		}
		a.Free(c, r)
	})
	e.Run()
	if a.Name() != "serial" {
		t.Error("wrong name")
	}
}
