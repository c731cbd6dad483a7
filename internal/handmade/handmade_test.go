package handmade

import (
	"testing"

	"amplify/internal/alloc"
	"amplify/internal/mem"
	"amplify/internal/sim"

	_ "amplify/internal/serial"
)

func setup(t *testing.T) (*sim.Engine, alloc.Allocator) {
	t.Helper()
	e := sim.New(sim.Config{Processors: 4})
	under, err := alloc.New("serial", e, mem.NewSpace(), alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e, under
}

func TestInitPreallocates(t *testing.T) {
	e, under := setup(t)
	p := New(under, 640, 1<<41)
	e.Go("w", func(c *sim.Ctx) {
		p.Init(c, 5)
		if p.FreeCount() != 5 {
			t.Errorf("free count after init = %d, want 5", p.FreeCount())
		}
		for i := 0; i < 5; i++ {
			if _, reused := p.Alloc(c); !reused {
				t.Errorf("alloc %d after init should hit the pool", i)
			}
		}
		if _, reused := p.Alloc(c); reused {
			t.Error("sixth alloc must miss")
		}
	})
	e.Run()
	if p.Preallocd != 5 || p.Hits != 5 || p.Misses != 1 {
		t.Fatalf("prealloc=%d hits=%d misses=%d", p.Preallocd, p.Hits, p.Misses)
	}
}

func TestNoLocksUsed(t *testing.T) {
	e, under := setup(t)
	p := New(under, 64, 1<<41)
	e.Go("w", func(c *sim.Ctx) {
		p.Init(c, 4)
		before := e.Stats().LockAcquires
		for i := 0; i < 4; i++ {
			r, _ := p.Alloc(c)
			p.Free(c, r)
		}
		if e.Stats().LockAcquires != before {
			t.Error("handmade pool hit path acquired a lock")
		}
	})
	e.Run()
}

func TestHandmadeCheaperThanUnderlying(t *testing.T) {
	e, under := setup(t)
	p := New(under, 64, 1<<41)
	var poolTime, mallocTime int64
	e.Go("w", func(c *sim.Ctx) {
		p.Init(c, 1)
		start := c.Now()
		for i := 0; i < 200; i++ {
			r, _ := p.Alloc(c)
			p.Free(c, r)
		}
		poolTime = c.Now() - start
		start = c.Now()
		for i := 0; i < 200; i++ {
			r := under.Alloc(c, 64)
			under.Free(c, r)
		}
		mallocTime = c.Now() - start
	})
	e.Run()
	if poolTime*2 >= mallocTime {
		t.Fatalf("handmade pool not clearly cheaper: pool=%d malloc=%d", poolTime, mallocTime)
	}
}
