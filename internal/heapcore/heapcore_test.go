package heapcore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"amplify/internal/mem"
	"amplify/internal/sim"
)

func withHeap(t *testing.T, fn func(c *sim.Ctx, h *Heap)) {
	t.Helper()
	e := sim.New(sim.Config{Processors: 1})
	h := New(mem.NewSpace(), Config{PathOps: 10}, &Index{Name: "heapcore"})
	e.Go("w", func(c *sim.Ctx) { fn(c, h) })
	e.Run()
}

func usableSize(h *Heap, ref mem.Ref) int64 {
	n, _ := h.sizes.Lookup(ref, "UsableSize")
	return n
}

func TestClassRounding(t *testing.T) {
	h := New(mem.NewSpace(), Config{}, &Index{Name: "heapcore"})
	cases := []struct{ req, usable int64 }{
		{1, 16}, {16, 16}, {17, 32}, {20, 32}, {28, 32}, {512, 512},
		{513, 1024}, {1000, 1024}, {1 << 20, 1 << 20},
	}
	for _, tc := range cases {
		if _, got := h.classFor(tc.req); got != tc.usable {
			t.Errorf("classFor(%d) usable = %d, want %d", tc.req, got, tc.usable)
		}
	}
	if bin, usable := h.classFor(3 << 20); bin != -1 || usable < 3<<20 {
		t.Errorf("huge class = (%d,%d)", bin, usable)
	}
}

func TestAllocFreeCycleReuses(t *testing.T) {
	withHeap(t, func(c *sim.Ctx, h *Heap) {
		r1, _ := h.Alloc(c, 20, 0)
		h.Free(c, r1)
		r2, _ := h.Alloc(c, 24, 0) // same class (32)
		if r1 != r2 {
			t.Errorf("same-class realloc got %#x, want reuse of %#x", uint64(r2), uint64(r1))
		}
	})
}

func TestLargerBinReuse(t *testing.T) {
	withHeap(t, func(c *sim.Ctx, h *Heap) {
		r1, _ := h.Alloc(c, 64, 0) // class 64
		h.Free(c, r1)
		r2, _ := h.Alloc(c, 40, 0) // class 48; bin probe should find the 64 block
		if r1 != r2 {
			t.Errorf("expected first-fit reuse from larger bin")
		}
		if usableSize(h, r2) != 64 {
			t.Errorf("usable = %d, want 64", usableSize(h, r2))
		}
		// The reused block grants its own 64 bytes, not the request's
		// class, so the live footprint is the block's.
		if i := h.Inspect(); i.GrantedBytes != 128 || i.LiveBytes != 64 {
			t.Errorf("granted %d, live %d; want 128, 64", i.GrantedBytes, i.LiveBytes)
		}
	})
}

func TestCarveAdjacency(t *testing.T) {
	// Blocks carved back-to-back should be adjacent (this adjacency is
	// what makes false sharing of small blocks possible on the shared
	// heap, as in the paper's test case 1).
	withHeap(t, func(c *sim.Ctx, h *Heap) {
		r1, _ := h.Alloc(c, 20, 0)
		r2, _ := h.Alloc(c, 20, 0)
		if r2-r1 != 32+8 {
			t.Errorf("stride = %d, want 40 (32 usable + 8 header)", r2-r1)
		}
	})
}

func TestHugeAlloc(t *testing.T) {
	withHeap(t, func(c *sim.Ctx, h *Heap) {
		r, _ := h.Alloc(c, 5<<20, 0)
		if usableSize(h, r) < 5<<20 {
			t.Errorf("huge usable = %d", usableSize(h, r))
		}
		h.Free(c, r) // must not panic; abandoned to the space
	})
}

func TestFreeUnknownPanics(t *testing.T) {
	withHeap(t, func(c *sim.Ctx, h *Heap) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on unknown free")
			}
		}()
		h.Free(c, mem.Ref(0xdead))
	})
}

func TestOwns(t *testing.T) {
	withHeap(t, func(c *sim.Ctx, h *Heap) {
		r, _ := h.Alloc(c, 20, 0)
		if _, _, ok := h.sizes.get(r); !ok {
			t.Error("allocated block not in the block index")
		}
		if _, _, ok := h.sizes.get(mem.Ref(0x9999)); ok {
			t.Error("bogus block found in the block index")
		}
	})
}

func TestChurnProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		ok := true
		e := sim.New(sim.Config{Processors: 1})
		h := New(mem.NewSpace(), Config{}, &Index{Name: "heapcore"})
		e.Go("w", func(c *sim.Ctx) {
			var live []mem.Ref
			for _, op := range ops {
				if len(live) == 0 || op%3 != 0 {
					sz := int64(op)*3 + 1
					r, _ := h.Alloc(c, sz, 0)
					if usableSize(h, r) < sz {
						ok = false
						return
					}
					live = append(live, r)
				} else {
					h.Free(c, live[len(live)-1])
					live = live[:len(live)-1]
				}
			}
			if h.Allocs-h.Frees != int64(len(live)) {
				ok = false
			}
		})
		e.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapsHaveDistinctMetadata(t *testing.T) {
	sp := mem.NewSpace()
	h1 := New(sp, Config{}, &Index{Name: "heapcore"})
	h2 := New(sp, Config{}, &Index{Name: "heapcore"})
	if h1.MetaBase() == h2.MetaBase() {
		t.Fatal("heaps share a metadata page")
	}
	if d := int64(h2.MetaBase()) - int64(h1.MetaBase()); d < mem.PageSize && d > -mem.PageSize {
		t.Fatalf("metadata pages overlap: delta %d", d)
	}
}

func TestCarvedBytesAccounting(t *testing.T) {
	withHeap(t, func(c *sim.Ctx, h *Heap) {
		before := h.CarvedBytes
		h.Alloc(c, 100, 0)
		if h.CarvedBytes <= before {
			t.Error("CarvedBytes did not grow on first carve")
		}
		carved := h.CarvedBytes
		r, _ := h.Alloc(c, 100, 0)
		h.Free(c, r)
		h.Alloc(c, 100, 0) // reuse: no new carving beyond the wilderness walk
		if h.CarvedBytes != carved {
			t.Errorf("reuse carved more memory: %d -> %d", carved, h.CarvedBytes)
		}
	})
}

// TestBlockIndexMatchesMap checks the flat block index against a Go
// map through several growths, with clustered and scattered refs,
// overwrites of existing entries, and sizes and owners up to the
// limits of their packed fields.
func TestBlockIndexMatchesMap(t *testing.T) {
	type entry struct {
		size int64
		heap int
	}
	rng := rand.New(rand.NewSource(1))
	var x Index
	want := map[mem.Ref]entry{}
	for i := 0; i < 20_000; i++ {
		ref := mem.Ref(0x10008 + 16*rng.Intn(5000))
		if i%3 == 0 {
			ref = mem.Ref(rng.Uint64() | 1)
		}
		e := entry{int64(rng.Intn(1 << 20)), rng.Intn(maxOwners)}
		if i%101 == 0 {
			e = entry{1<<sizeBits - 1, maxOwners - 1}
		}
		x.Put(ref, e.size, e.heap)
		want[ref] = e
	}
	if x.words.Len() != len(want) {
		t.Fatalf("index holds %d entries, want %d", x.words.Len(), len(want))
	}
	for ref, e := range want {
		if size, heap, ok := x.get(ref); !ok || size != e.size || heap != e.heap {
			t.Fatalf("get(%#x) = %d, %d, %v; want %+v", uint64(ref), size, heap, ok, e)
		}
	}
	for i := 0; i < 1000; i++ {
		ref := mem.Ref(rng.Uint64() &^ 1) // even: never inserted above
		if _, ok := want[ref]; ok {
			continue
		}
		if _, _, ok := x.get(ref); ok {
			t.Fatalf("get(%#x) found a ref never put", uint64(ref))
		}
	}
}

// BenchmarkHeapAllocFree measures the host-side cost of the steady
// state alloc/free cycle: a bin pop plus a bin push, no carving after
// warm-up. ReportAllocs pins the host allocations per operation pair.
func BenchmarkHeapAllocFree(b *testing.B) {
	e := sim.New(sim.Config{Processors: 1})
	h := New(mem.NewSpace(), Config{PathOps: 10}, &Index{Name: "heapcore"})
	e.Go("w", func(c *sim.Ctx) {
		r, _ := h.Alloc(c, 20, 0) // warm the bin and the wilderness
		h.Free(c, r)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, _ := h.Alloc(c, 20, 0)
			h.Free(c, r)
		}
	})
	e.Run()
}

// BenchmarkHeapCarve measures the carve path: every allocation cuts a
// fresh block from the wilderness (nothing is freed).
func BenchmarkHeapCarve(b *testing.B) {
	e := sim.New(sim.Config{Processors: 1})
	h := New(mem.NewSpace(), Config{PathOps: 10}, &Index{Name: "heapcore"})
	e.Go("w", func(c *sim.Ctx) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Alloc(c, 20, 0)
		}
	})
	e.Run()
}
