package heapcore

import (
	"testing"

	"amplify/internal/mem"
)

// TestSizeClassMatchesTableScan compares SizeClass with the table scan
// hoard, lfalloc and smartheap each used to run, for every request
// from -1 to one byte past the largest class.
func TestSizeClassMatchesTableScan(t *testing.T) {
	for _, max := range []int64{1024, 2048} {
		var classes []int64
		for s := int64(16); s <= max; s *= 2 {
			classes = append(classes, s)
		}
		scan := func(size int64) (int, int64) {
			for i, c := range classes {
				if size <= c {
					return i, c
				}
			}
			return -1, 0
		}
		for size := int64(-1); size <= max+1; size++ {
			i, c := SizeClass(size, max)
			if wi, wc := scan(size); i != wi || c != wc {
				t.Fatalf("SizeClass(%d, %d) = %d, %d; the scan gives %d, %d", size, max, i, c, wi, wc)
			}
		}
	}
}

// TestIndexOverflowPanics checks that a size or an owner too wide for
// its packed field panics instead of being truncated.
func TestIndexOverflowPanics(t *testing.T) {
	x := &Index{Name: "test"}
	x.Put(0x10, 1<<sizeBits-1, maxOwners-1)
	for _, e := range []struct {
		size  int64
		owner int
	}{{1 << sizeBits, 0}, {-1, 0}, {16, maxOwners}, {16, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Put of size %d, owner %d did not panic", e.size, e.owner)
				}
			}()
			x.Put(0x20, e.size, e.owner)
		}()
	}
	if size, owner := x.Lookup(0x10, "Lookup"); size != 1<<sizeBits-1 || owner != maxOwners-1 {
		t.Errorf("Lookup = %d, %d", size, owner)
	}
	if _, _, ok := x.get(mem.Ref(0x20)); ok {
		t.Error("a refused Put left an entry")
	}
}
