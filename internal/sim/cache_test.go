package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestRFOChargedOnForeignWrite(t *testing.T) {
	e := New(Config{Processors: 2})
	wg := e.NewWaitGroup()
	wg.Add(1)
	e.Go("first", func(c *Ctx) {
		c.Write(0x1000, 8)
		wg.Done(c)
	})
	e.Go("second", func(c *Ctx) {
		wg.Wait(c)
		c.Write(0x1000, 8) // other CPU owns the line: RFO
	})
	e.Run()
	if e.Cache().RFOs == 0 {
		t.Fatal("no RFO charged for cross-CPU write")
	}
}

func TestSameCPUWritesNoRFO(t *testing.T) {
	e := New(Config{Processors: 2})
	e.Go("w", func(c *Ctx) {
		for i := 0; i < 10; i++ {
			c.Write(0x1000, 8)
		}
	})
	e.Run()
	if e.Cache().RFOs != 0 {
		t.Fatalf("RFOs = %d for single-writer line", e.Cache().RFOs)
	}
	if e.Cache().Misses != 1 {
		t.Fatalf("misses = %d, want 1 (cold only)", e.Cache().Misses)
	}
}

func TestInvalidationAfterRemoteWrite(t *testing.T) {
	e := New(Config{Processors: 2})
	wg1 := e.NewWaitGroup()
	wg2 := e.NewWaitGroup()
	wg1.Add(1)
	wg2.Add(1)
	var missesBefore, missesAfter int64
	e.Go("reader", func(c *Ctx) {
		c.Read(0x2000, 8) // cold miss, now cached
		c.Read(0x2000, 8) // hit
		missesBefore = c.Thread().CacheMisses
		wg1.Done(c)
		wg2.Wait(c)
		c.Read(0x2000, 8) // invalidated by the writer: miss again
		missesAfter = c.Thread().CacheMisses
	})
	e.Go("writer", func(c *Ctx) {
		wg1.Wait(c)
		c.Write(0x2000, 8)
		wg2.Done(c)
	})
	e.Run()
	if missesAfter != missesBefore+1 {
		t.Fatalf("misses before=%d after=%d; remote write did not invalidate", missesBefore, missesAfter)
	}
}

func TestAccessSpanningLines(t *testing.T) {
	e := New(Config{Processors: 1})
	e.Go("w", func(c *Ctx) {
		c.Read(0x1030, 64) // spans two 64-byte lines (0x1000 and 0x1040)
	})
	e.Run()
	if e.Cache().Misses != 2 {
		t.Fatalf("misses = %d, want 2 for a spanning access", e.Cache().Misses)
	}
}

// BenchmarkCacheAccess measures one 8-byte access through the cache
// model (a quarter of them stores), with processors taking turns on
// either 64 dense lines that every processor shares or 64k lines
// scattered over 1 GiB.
func BenchmarkCacheAccess(b *testing.B) {
	for _, p := range []int{8, 1024} {
		for _, layout := range []string{"dense", "scattered"} {
			b.Run(fmt.Sprintf("P=%d/%s", p, layout), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				n := 1 << 16
				addrs := make([]uint64, n)
				for i := range addrs {
					if layout == "dense" {
						addrs[i] = 0x10000 + uint64(rng.Intn(64))*64
					} else {
						addrs[i] = uint64(rng.Int63n(1<<30)) &^ 7
					}
				}
				e := New(Config{Processors: p})
				t := e.newThread("bench", nil)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j := i & (n - 1)
					e.cache.access(t, (i*7)%p, addrs[j], 8, j&3 == 0)
				}
			})
		}
	}
}
