package alloc_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"amplify/internal/alloc"
	"amplify/internal/mem"
	"amplify/internal/sim"

	_ "amplify/internal/hoard"
	_ "amplify/internal/lfalloc"
	_ "amplify/internal/lkmalloc"
	_ "amplify/internal/ptmalloc"
	_ "amplify/internal/serial"
	_ "amplify/internal/smartheap"
)

var strategies = []string{"serial", "ptmalloc", "hoard", "smartheap", "lkmalloc", "lfalloc"}

func TestRegistryNames(t *testing.T) {
	names := alloc.Names()
	want := map[string]bool{"serial": true, "ptmalloc": true, "hoard": true, "smartheap": true, "lkmalloc": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("missing registered strategies: %v (have %v)", want, names)
	}
}

func TestUnknownStrategy(t *testing.T) {
	e := sim.New(sim.Config{Processors: 2})
	if _, err := alloc.New("bogus", e, mem.NewSpace(), alloc.Options{}); err == nil {
		t.Fatal("expected error for unknown strategy")
	}
}

func TestValid(t *testing.T) {
	for _, s := range strategies {
		if err := alloc.Valid(s); err != nil {
			t.Errorf("Valid(%q) = %v", s, err)
		}
	}
	err := alloc.Valid("bogus")
	if err == nil {
		t.Fatal("Valid(bogus) = nil, want error")
	}
	for _, s := range strategies {
		if !strings.Contains(err.Error(), s) {
			t.Errorf("error %q does not list registered strategy %q", err, s)
		}
	}
}

// runOn drives fn inside a one-thread simulation with a fresh allocator.
func runOn(t *testing.T, strategy string, fn func(c *sim.Ctx, a alloc.Allocator)) {
	t.Helper()
	e := sim.New(sim.Config{Processors: 8})
	sp := mem.NewSpace()
	a, err := alloc.New(strategy, e, sp, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Go("t0", func(c *sim.Ctx) { fn(c, a) })
	e.Run()
}

func TestAllocBasics(t *testing.T) {
	for _, s := range strategies {
		t.Run(s, func(t *testing.T) {
			runOn(t, s, func(c *sim.Ctx, a alloc.Allocator) {
				seen := map[mem.Ref]bool{}
				var refs []mem.Ref
				for i := 0; i < 100; i++ {
					r := a.Alloc(c, 20)
					if r == mem.Nil {
						t.Fatal("Alloc returned nil")
					}
					if seen[r] {
						t.Fatalf("duplicate live ref %#x", uint64(r))
					}
					if got := a.UsableSize(r); got < 20 {
						t.Fatalf("UsableSize = %d < requested 20", got)
					}
					seen[r] = true
					refs = append(refs, r)
				}
				st := a.Stats()
				if st.Allocs != 100 || st.LiveBlocks != 100 {
					t.Fatalf("stats = %+v, want 100 allocs live", st)
				}
				for _, r := range refs {
					a.Free(c, r)
				}
				st = a.Stats()
				if st.Frees != 100 || st.LiveBlocks != 0 || st.LiveBytes != 0 {
					t.Fatalf("stats after frees = %+v", st)
				}
			})
		})
	}
}

func TestFreeThenAllocReusesMemory(t *testing.T) {
	for _, s := range strategies {
		t.Run(s, func(t *testing.T) {
			runOn(t, s, func(c *sim.Ctx, a alloc.Allocator) {
				r1 := a.Alloc(c, 64)
				a.Free(c, r1)
				r2 := a.Alloc(c, 64)
				if r1 != r2 {
					t.Fatalf("expected LIFO reuse: first=%#x second=%#x", uint64(r1), uint64(r2))
				}
			})
		})
	}
}

func TestVariousSizes(t *testing.T) {
	sizes := []int64{1, 7, 16, 20, 28, 100, 512, 777, 4000, 9000, 70_000, 2 << 20}
	for _, s := range strategies {
		t.Run(s, func(t *testing.T) {
			runOn(t, s, func(c *sim.Ctx, a alloc.Allocator) {
				var refs []mem.Ref
				for _, sz := range sizes {
					r := a.Alloc(c, sz)
					if got := a.UsableSize(r); got < sz {
						t.Fatalf("size %d: usable %d", sz, got)
					}
					refs = append(refs, r)
				}
				for _, r := range refs {
					a.Free(c, r)
				}
			})
		})
	}
}

// mustPanic fails t unless fn panics. It may run on a simulated
// thread: it reports with t.Errorf, never t.Fatal.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestUnknownRefPanics checks that every allocator refuses a ref it
// never handed out, both before its block index holds anything and
// after it holds a small and a huge block.
func TestUnknownRefPanics(t *testing.T) {
	for _, s := range strategies {
		t.Run(s, func(t *testing.T) {
			runOn(t, s, func(c *sim.Ctx, a alloc.Allocator) {
				bogus := mem.Ref(0xbad0)
				for _, step := range []string{"empty", "holding blocks"} {
					mustPanic(t, step+": Free", func() { a.Free(c, bogus) })
					mustPanic(t, step+": UsableSize", func() { a.UsableSize(bogus) })
					bogus = a.Alloc(c, 20) + 8
					a.Alloc(c, 70_000)
				}
			})
		})
	}
}

// TestFreedHugeBlockPanics checks that a freed block above the largest
// class stays freed on the allocators that serve such blocks straight
// from the address space: freeing it again or asking its size panics.
func TestFreedHugeBlockPanics(t *testing.T) {
	for _, s := range []string{"hoard", "lfalloc"} {
		t.Run(s, func(t *testing.T) {
			runOn(t, s, func(c *sim.Ctx, a alloc.Allocator) {
				r := a.Alloc(c, 70_000)
				a.Alloc(c, 70_000)
				a.Free(c, r)
				mustPanic(t, "Free of a freed huge block", func() { a.Free(c, r) })
				mustPanic(t, "UsableSize of a freed huge block", func() { a.UsableSize(r) })
				if st := a.Stats(); st.Frees != 1 || st.LiveBlocks != 1 {
					t.Errorf("stats = %+v, want one free and one live block", st)
				}
			})
		})
	}
}

func TestDistinctBlocksDoNotOverlap(t *testing.T) {
	for _, s := range strategies {
		t.Run(s, func(t *testing.T) {
			runOn(t, s, func(c *sim.Ctx, a alloc.Allocator) {
				type span struct{ lo, hi uint64 }
				var spans []span
				for i := 0; i < 200; i++ {
					sz := int64(8 + (i%10)*24)
					r := a.Alloc(c, sz)
					spans = append(spans, span{uint64(r), uint64(r) + uint64(a.UsableSize(r))})
				}
				for i := range spans {
					for j := i + 1; j < len(spans); j++ {
						if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
							t.Fatalf("blocks %d and %d overlap: %+v %+v", i, j, spans[i], spans[j])
						}
					}
				}
			})
		})
	}
}

// TestRandomChurnProperty drives random alloc/free sequences and checks
// the live-set accounting invariants via testing/quick.
func TestRandomChurnProperty(t *testing.T) {
	for _, s := range strategies {
		t.Run(s, func(t *testing.T) {
			prop := func(seed int64) bool {
				ok := true
				runOn(t, s, func(c *sim.Ctx, a alloc.Allocator) {
					rng := rand.New(rand.NewSource(seed))
					live := map[mem.Ref]int64{}
					var order []mem.Ref
					var wantLive int64
					for i := 0; i < 400; i++ {
						if len(order) == 0 || rng.Intn(100) < 55 {
							sz := int64(1 + rng.Intn(300))
							r := a.Alloc(c, sz)
							if _, dup := live[r]; dup {
								ok = false
								return
							}
							live[r] = a.UsableSize(r)
							wantLive += a.UsableSize(r)
							order = append(order, r)
						} else {
							i := rng.Intn(len(order))
							r := order[i]
							order = append(order[:i], order[i+1:]...)
							wantLive -= live[r]
							delete(live, r)
							a.Free(c, r)
						}
					}
					st := a.Stats()
					if st.LiveBlocks != int64(len(order)) || st.LiveBytes != wantLive {
						ok = false
					}
					if st.PeakBytes < st.LiveBytes {
						ok = false
					}
				})
				return ok
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestParallelChurn runs a multithreaded churn on each strategy and
// checks accounting stays consistent under simulated concurrency.
func TestParallelChurn(t *testing.T) {
	for _, s := range strategies {
		t.Run(s, func(t *testing.T) {
			e := sim.New(sim.Config{Processors: 4})
			sp := mem.NewSpace()
			a, err := alloc.New(s, e, sp, alloc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ {
				e.Go("w", func(c *sim.Ctx) {
					var refs []mem.Ref
					for j := 0; j < 200; j++ {
						refs = append(refs, a.Alloc(c, int64(16+j%5*16)))
						if len(refs) > 10 {
							a.Free(c, refs[0])
							refs = refs[1:]
						}
					}
					for _, r := range refs {
						a.Free(c, r)
					}
				})
			}
			e.Run()
			st := a.Stats()
			if st.Allocs != 6*200 {
				t.Fatalf("allocs = %d, want 1200", st.Allocs)
			}
			if st.LiveBlocks != 0 {
				t.Fatalf("leaked %d blocks", st.LiveBlocks)
			}
		})
	}
}

// TestSerialDoesNotScale checks the baseline's defining property: more
// threads do not speed up an allocation-bound workload.
func TestSerialDoesNotScale(t *testing.T) {
	makespan := func(threads int) int64 {
		e := sim.New(sim.Config{Processors: 8})
		sp := mem.NewSpace()
		a, _ := alloc.New("serial", e, sp, alloc.Options{})
		total := 2400
		per := total / threads
		for i := 0; i < threads; i++ {
			e.Go("w", func(c *sim.Ctx) {
				for j := 0; j < per; j++ {
					r := a.Alloc(c, 20)
					a.Free(c, r)
				}
			})
		}
		return e.Run()
	}
	t1, t4 := makespan(1), makespan(4)
	if float64(t4) < 0.8*float64(t1) {
		t.Fatalf("serial allocator scaled: 1 thread %d, 4 threads %d", t1, t4)
	}
}

// TestPtmallocScales checks that arenas remove the serialization.
func TestPtmallocScales(t *testing.T) {
	makespan := func(strategy string, threads int) int64 {
		e := sim.New(sim.Config{Processors: 8})
		sp := mem.NewSpace()
		a, _ := alloc.New(strategy, e, sp, alloc.Options{})
		total := 2400
		per := total / threads
		for i := 0; i < threads; i++ {
			e.Go("w", func(c *sim.Ctx) {
				for j := 0; j < per; j++ {
					r := a.Alloc(c, 20)
					c.Write(uint64(r), 8)
					a.Free(c, r)
				}
			})
		}
		return e.Run()
	}
	pt1, pt4 := makespan("ptmalloc", 1), makespan("ptmalloc", 4)
	if float64(pt4) > 0.6*float64(pt1) {
		t.Fatalf("ptmalloc did not scale: 1 thread %d, 4 threads %d", pt1, pt4)
	}
	ho1, ho4 := makespan("hoard", 1), makespan("hoard", 4)
	if float64(ho4) > 0.6*float64(ho1) {
		t.Fatalf("hoard did not scale: 1 thread %d, 4 threads %d", ho1, ho4)
	}
}
